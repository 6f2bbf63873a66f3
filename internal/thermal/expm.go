package thermal

import (
	"math"
	"runtime"
	"slices"
	"sync"
)

// The exact matrix-exponential integrator.
//
// The RC network is linear time-invariant: with the state vector T and
// a constant power injection P over a span of dt seconds,
//
//	dT/dt = H·T + C⁻¹·(P + Gamb·Tamb),   H = C⁻¹·(-G)
//
// has the closed-form solution
//
//	T(dt) = A·T(0) + B·P + b,
//	A = e^{H·dt},  B = (∫₀^dt e^{Hs} ds)·C⁻¹,  b = B·(Gamb·Tamb),
//
// so one dense matvec pair replaces the whole Euler substep loop
// with zero truncation error. The propagator triple (A, B, b) is built
// per distinct span length by scaling-and-squaring and memoized in a
// small cache keyed by the span's float64 bits — the engine steps the
// thermal model at a fixed sensor period, so the hit rate is near-total
// after the first window. The integrator itself holds only O(n + nnz)
// state: H and every other n×n matrix exist only inside a build and in
// the propagators in use, so a network that never propagates densely
// never allocates one. A build's Taylor products exploit H's sparsity
// (O(n²·nnz/row) each); only its few doubling products are dense
// O(n³), split by rows across up to GOMAXPROCS goroutines once n
// reaches 128. Both kernels reproduce the plain triple loop's bits
// exactly, so a propagator's bits depend neither on GOMAXPROCS, nor on
// how the rows are split, nor on whether the host runs the portable or
// the AVX dense kernels.
//
// Dense propagation costs 2n² multiply-adds per span regardless of the
// span length, while substepping costs (substeps × sparse RHS). The
// integrator therefore falls back to explicit Euler (bit-for-bit the
// default scheme) for spans below a crossover where substepping is
// cheaper — short spans on any network, and any span on very large
// networks (manycore tiles) whose mild stiffness needs only a handful
// of sparse substeps. The crossover is part of the output contract,
// not a tuning knob: dense propagation and Euler substepping differ in
// the last bits, so it decides which bits every expm document carries,
// and moving it changes documents under unchanged keys
// (TestExpmCrossoverPinned).

// expmCacheCap bounds the propagator cache per integrator. Two dense
// n×n matrices per entry make unbounded growth a real memory hazard if
// a caller sweeps span lengths; eviction is FIFO (the steady sensor
// cadence re-primes an evicted span in one build).
const expmCacheCap = 32

// expmSparsePenalty weighs one sparse RHS element (adjacency chase +
// capacitance divide) against one dense propagator multiply-add in the
// automatic crossover. It was chosen from a cost estimate, but it is
// now fixed by the output contract: it selects dense or Euler bits for
// every expm document, so it cannot be retuned for speed without
// changing those documents.
const expmSparsePenalty = 8

// expmTheta is the scaled-step norm bound ‖H·h‖∞ ≤ expmTheta at which
// the Taylor series is evaluated; the remainder after expmMaxTerms
// terms is far below double-precision roundoff.
const expmTheta = 0.25

// expmMaxTerms caps the Taylor series length (convergence at
// ‖X‖ ≤ expmTheta needs ~14 terms for 1e-18; the cap is a backstop).
const expmMaxTerms = 32

// propagator is the memoized exact-step triple for one span length. It
// is immutable once built, so one instance may be shared between
// integrators (and goroutines) via the process-wide build cache.
type propagator struct {
	a []float64 // e^{H·dt}, n×n row-major
	// bt is (∫₀^dt e^{Hs} ds)·C⁻¹ stored TRANSPOSED (column j of B is
	// bt[j*n:(j+1)*n]): the power vector is mostly zeros (only block
	// nodes dissipate), so the hot loop walks B by column over the
	// nonzero power entries only, and the transpose keeps each column
	// contiguous.
	bt []float64
	c  []float64 // constant ambient forcing, length n
}

// expmIntegrator advances the network by exact dense propagation with
// memoized per-span propagators, falling back to explicit Euler below
// the crossover. Its own state is O(n): the steady-state path (cache
// hit) performs no allocations, and n×n matrices live only in the
// cached propagators and, transiently, in build.
type expmIntegrator struct {
	net *Network // bound network; a different network resets everything
	n   int

	autoMin     int // auto crossover: use expm at ≥ this many Euler substeps
	minSubsteps int // Config override (0 = auto)

	cache map[uint64]*propagator
	order []uint64 // insertion order for FIFO eviction
	hits, misses,
	evictions int

	fallback eulerIntegrator

	// Hot-loop scratch (length n).
	y []float64
}

func newExpm(minSubsteps int) *expmIntegrator {
	return &expmIntegrator{minSubsteps: minSubsteps}
}

func (e *expmIntegrator) Name() string { return Expm.String() }

// MaxStep is unbounded: the propagator is exact for any span length.
// (Spans below the crossover substep via the Euler fallback. That is
// not a stability bound; it fixes which bits a run produces, so it is
// part of the output contract.)
func (e *expmIntegrator) MaxStep(v View) float64 { return math.Inf(1) }

// bind resets the integrator for the network behind v and computes the
// crossover from its sparse structure, in O(n + nnz). Subsequent
// Advance calls on the same network are allocation-free on the
// cache-hit path.
func (e *expmIntegrator) bind(v View) {
	if e.net == v.n {
		return
	}
	n := v.NumNodes()
	e.net = v.n
	e.n = n
	e.y = make([]float64, n)
	e.cache = make(map[uint64]*propagator)
	e.order = e.order[:0]
	e.hits, e.misses, e.evictions = 0, 0, 0

	sparseElems := n
	for i := 0; i < n; i++ {
		sparseElems += 2 * len(v.Neighbors(i))
	}
	// Automatic crossover: dense propagation (2 matvecs, 2·2·n² flops)
	// wins once substeps·(2·sparseElems)·penalty exceeds it, i.e. at
	// substeps ≥ n²/(penalty·sparseElems).
	e.autoMin = int(math.Ceil(float64(n) * float64(n) / (expmSparsePenalty * float64(sparseElems))))
	if e.autoMin < 1 {
		e.autoMin = 1
	}
}

// useExpm decides dense propagation versus the substepping fallback
// for a span of dt seconds on the bound network.
func (e *expmIntegrator) useExpm(dt float64) bool {
	substeps := int(math.Ceil(dt / e.net.maxStep))
	threshold := e.minSubsteps
	if threshold <= 0 {
		threshold = e.autoMin
	}
	return substeps >= threshold
}

func (e *expmIntegrator) Advance(v View, temps []float64, dt float64, power []float64) {
	if dt <= 0 {
		return
	}
	e.bind(v)
	if !e.useExpm(dt) {
		e.fallback.Advance(v, temps, dt, power)
		return
	}
	kernels.step(e.propagator(dt), temps, power, e.y)
}

// propagator returns the memoized (A, B, b) triple for the span,
// building and caching it on first use. Identical span lengths share
// one cached triple, so repeated spans recompute nothing.
func (e *expmIntegrator) propagator(dt float64) *propagator {
	key := math.Float64bits(dt)
	if p, ok := e.cache[key]; ok {
		e.hits++
		return p
	}
	e.misses++
	p := e.sharedOrBuild(dt)
	if len(e.order) >= expmCacheCap {
		delete(e.cache, e.order[0])
		e.order = e.order[:copy(e.order, e.order[1:])]
		e.evictions++
	}
	e.cache[key] = p
	e.order = append(e.order, key)
	return p
}

// The process-wide build cache. Experiment sweeps construct a fresh
// Network (and integrator) per run, but the runs of one sweep share a
// handful of package presets, so the same (H, C, dt) propagator would
// otherwise be rebuilt per run — and a build (O(n³) doubling products)
// costs as much as hundreds of propagated spans. Entries are keyed by a
// content hash of the sparse system that determines (H, C⁻¹, Gamb·Tamb)
// and verified element-for-element on lookup, so a hit returns a
// bit-identical propagator to the one a local build would produce, and
// does O(n + nnz) work: nothing dense is assembled, hashed or compared.
// Propagators are immutable after build, making the shared instances
// safe for concurrent runs (the parallel Runner, the service's exec
// slots).
const sharedPropCap = 64

// expmSystem is a copy of the sparse data a build reads: per node its
// capacitance, total conductance and ambient forcing AmbientG·Tamb, and
// its (neighbor, G) list in order. Equal systems assemble equal
// (H, C⁻¹, Gamb·Tamb), hence equal propagators.
type expmSystem struct {
	c, sumG, gamb []float64
	adj           []Adj // every adjacency list, concatenated in node order
	end           []int // node i's list ends at adj[end[i]]
}

func newExpmSystem(v View) expmSystem {
	n := v.NumNodes()
	s := expmSystem{
		c:    make([]float64, n),
		sumG: make([]float64, n),
		gamb: make([]float64, n),
		end:  make([]int, n),
	}
	for i := 0; i < n; i++ {
		s.c[i] = v.Capacitance(i)
		s.sumG[i] = v.SumG(i)
		s.gamb[i] = v.AmbientG(i) * v.Ambient()
		s.adj = append(s.adj, v.Neighbors(i)...)
		s.end[i] = len(s.adj)
	}
	return s
}

// key hashes (n, dt, the system) with FNV-1a.
func (s *expmSystem) key(dt float64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(len(s.c)))
	mix(math.Float64bits(dt))
	for i := range s.c {
		mix(math.Float64bits(s.c[i]))
		mix(math.Float64bits(s.sumG[i]))
		mix(math.Float64bits(s.gamb[i]))
		mix(uint64(s.end[i]))
	}
	for _, a := range s.adj {
		mix(uint64(a.Node))
		mix(math.Float64bits(a.G))
	}
	return h
}

// equal reports whether s and o describe exactly the same system
// (guarding against hash collisions).
func (s *expmSystem) equal(o *expmSystem) bool {
	return slices.Equal(s.c, o.c) && slices.Equal(s.sumG, o.sumG) &&
		slices.Equal(s.gamb, o.gamb) && slices.Equal(s.end, o.end) &&
		slices.Equal(s.adj, o.adj)
}

// sharedPropEntry is one cached system and span. The entry is published
// before its build runs, so concurrent runs that miss the same system
// wait on done for the one build instead of each starting their own.
type sharedPropEntry struct {
	dt   float64
	sys  expmSystem
	p    *propagator   // set before done is closed
	done chan struct{} // closed once p is built
}

var (
	sharedPropMu sync.Mutex
	sharedProps  = map[uint64][]*sharedPropEntry{}
	sharedPropN  int
	// sharedPropBuilds counts the builds the shared cache has started.
	sharedPropBuilds int
)

// sharedOrBuild returns the propagator for the bound system and span,
// reusing a process-wide cached build when one exists and waiting for
// it when another run is building it.
func (e *expmIntegrator) sharedOrBuild(dt float64) *propagator {
	sys := newExpmSystem(View{n: e.net})
	key := sys.key(dt)
	sharedPropMu.Lock()
	for _, s := range sharedProps[key] {
		if s.dt == dt && s.sys.equal(&sys) {
			sharedPropMu.Unlock()
			<-s.done
			return s.p
		}
	}
	if sharedPropN >= sharedPropCap {
		// The entries' propagators are the dominant memory; rather
		// than track recency, drop everything and let the few live
		// systems re-prime (one build each). A run waiting on a
		// dropped in-flight entry still receives its build.
		sharedProps = map[uint64][]*sharedPropEntry{}
		sharedPropN = 0
	}
	ent := &sharedPropEntry{dt: dt, sys: sys, done: make(chan struct{})}
	sharedProps[key] = append(sharedProps[key], ent)
	sharedPropN++
	sharedPropBuilds++
	sharedPropMu.Unlock()
	ent.p = e.build(dt)
	close(ent.done)
	return ent.p
}

// build computes the propagator by scaling-and-squaring: the Taylor
// series of the pair (e^{X}, ∫e^{Xs}ds) at a step scaled to
// ‖X‖ ≤ expmTheta, then repeated doubling
//
//	A(2h) = A(h)·A(h),   Φ(2h) = Φ(h) + A(h)·Φ(h)
//
// back to the full span. Φ·C⁻¹ and the ambient forcing are folded in
// at the end. The Taylor products right-multiply by the sparse H
// (O(n²·nnz/row) each); only the doubling products are dense O(n³),
// through the register-tiled kernel, whose rows matmul splits across
// goroutines on large networks. Both kernels keep the summation rule
// below, so every propagator is bit-identical to one built with a
// plain triple loop, whatever GOMAXPROCS is and whichever dense
// kernels run. H and all scratch are local: only the returned
// propagator outlives the call.
func (e *expmIntegrator) build(dt float64) *propagator {
	v := View{n: e.net}
	n := e.n
	nn := n * n
	// Assemble H = C⁻¹·(-G) densely, then keep its nonzeros and norm.
	hd := make([]float64, nn)
	invC := make([]float64, n)
	gamb := make([]float64, n) // AmbientG_i · Tamb
	for i := 0; i < n; i++ {
		ci := v.Capacitance(i)
		invC[i] = 1 / ci
		gamb[i] = v.AmbientG(i) * v.Ambient()
		row := hd[i*n : (i+1)*n]
		for _, a := range v.Neighbors(i) {
			row[a.Node] = a.G / ci
		}
		row[i] = -v.SumG(i) / ci
	}
	hs := newCSR(hd, n)
	var normH float64 // ‖H‖∞
	for i := 0; i < n; i++ {
		var s float64
		for _, x := range hd[i*n : (i+1)*n] {
			s += math.Abs(x)
		}
		if s > normH {
			normH = s
		}
	}
	// Scaling: h = dt/2^s with ‖H‖·h ≤ expmTheta.
	s := 0
	for normH*math.Ldexp(dt, -s) > expmTheta && s < 200 {
		s++
	}
	h := math.Ldexp(dt, -s)

	a := make([]float64, nn)   // accumulates e^{H·h}; escapes into the propagator
	phi := make([]float64, nn) // accumulates ∫₀^h e^{Hs} ds; folded into bt below
	term := hd                 // X^k/k! with X = H·h; reuses H's storage
	next := make([]float64, nn)
	clear(term)
	for i := 0; i < n; i++ {
		a[i*n+i] = 1
		phi[i*n+i] = h
		term[i*n+i] = 1
	}
	for k := 1; k <= expmMaxTerms; k++ {
		// term ← term·X/k = term·(H·h)/k.
		hs.mulScaled(next, term, h/float64(k))
		term, next = next, term
		f := h / float64(k+1)
		var maxAbs float64
		for i, t := range term {
			a[i] += t
			phi[i] += float64(t * f)
			if t = math.Abs(t); t > maxAbs {
				maxAbs = t
			}
		}
		if maxAbs < 1e-18 {
			break
		}
	}
	// Doubling back to the full span; the Taylor buffers are free now.
	prod, panel := next, make([][4]float64, matmulWorkers(n)*n)
	for ; s > 0; s-- {
		kernels.matmul(prod, a, phi, panel, n)
		for i := range phi {
			phi[i] += prod[i]
		}
		kernels.matmul(prod, a, a, panel, n)
		a, prod = prod, a
	}
	// B = Φ·C⁻¹ (scale columns); b = Φ·(C⁻¹·Gamb·Tamb) = B·(Gamb·Tamb).
	// B is stored transposed for the column-walk in Advance.
	for i := 0; i < n; i++ {
		row := phi[i*n : i*n+n]
		for j := 0; j < n; j++ {
			row[j] *= invC[j]
		}
	}
	bt := make([]float64, nn)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			bt[j*n+i] = phi[i*n+j]
		}
	}
	c := make([]float64, n)
	for i := 0; i < n; i++ {
		row := phi[i*n : i*n+n]
		var sum float64
		for j := 0; j < n; j++ {
			sum += float64(row[j] * gamb[j])
		}
		c[i] = sum
	}
	return &propagator{a: a, bt: bt, c: c}
}

// The dense kernels: a build's doubling products and a dense step's
// matvec pair. Each kernel keeps one summation rule, which makes its
// output independent of how it blocks, splits or vectorizes its loops:
// every accumulator starts from +0 and adds its terms in one fixed
// order, each term a product rounded on its own (the float64
// conversions forbid the compiler from fusing a multiply-add, as it
// may on some architectures). An element of a build product is one
// accumulator over increasing k. A row of the step's A·T is four
// chains s0..s3, chain l summing the terms j ≡ l (mod 4) up to the
// last whole group of four, reduced as c[i] + ((s0+s1)+(s2+s3)), then
// the remaining terms in order; B·P then adds the columns of the
// nonzero powers in increasing column order. Under round-to-nearest a
// sum that starts at +0 never becomes −0, and adding ±0 to it changes
// nothing, so skipping an exact-zero product or adding one leaves
// every bit unchanged.
//
// goKernels are the portable Go forms, the reference every architecture
// runs. On amd64 hosts whose CPU and OS support AVX, init swaps in
// vector forms (kernels_amd64.go): each scalar accumulator of a Go
// form becomes one lane of a ymm register, and each lane performs the
// same separate multiply and add, with the accumulator as the first
// addend and no fused multiply-add, so both forms return the same bits.

// denseKernels is one implementation of the dense loops.
type denseKernels struct {
	// matmulRows computes rows [lo, hi) of dst = x·y for n×n row-major
	// matrices; panel is scratch of length n.
	matmulRows func(dst, x, y []float64, panel [][4]float64, n, lo, hi int)
	// matvec sets y[i] = c[i] + (a·t)[i] for the len(y) rows of the
	// row-major a, each len(t) long.
	matvec func(y, a, c, t []float64)
	// axpy adds x[i]·w to y[i] for every i of x.
	axpy func(y, x []float64, w float64)
}

// goKernels are the portable kernels.
var goKernels = denseKernels{matmulRows: matmulRows, matvec: matvec, axpy: axpy}

// kernels are the kernels this process runs: goKernels, unless init
// chose vector kernels for the host CPU.
var kernels = &goKernels

// step advances temps over one span by the propagator p under power,
// T ← A·T + c + B·P, with y (length n) as scratch.
func (k *denseKernels) step(p *propagator, temps, power, y []float64) {
	n := len(temps)
	k.matvec(y, p.a, p.c, temps)
	// B·P by columns, visiting only the nodes that dissipate power.
	for j, pj := range power {
		if pj == 0 {
			continue
		}
		k.axpy(y, p.bt[j*n:j*n+n], pj)
	}
	copy(temps, y)
}

// matvec is the portable A·T kernel. Four independent accumulator
// chains hide the FP add latency; the split is fixed, so the bits are.
func matvec(y, a, c, t []float64) {
	n := len(t)
	for i := range y {
		ai := a[i*n : i*n+n]
		var s0, s1, s2, s3 float64
		j := 0
		for ; j+4 <= n; j += 4 {
			s0 += float64(ai[j] * t[j])
			s1 += float64(ai[j+1] * t[j+1])
			s2 += float64(ai[j+2] * t[j+2])
			s3 += float64(ai[j+3] * t[j+3])
		}
		y[i] = finishRow(c[i], [4]float64{s0, s1, s2, s3}, ai, t, j)
	}
}

// finishRow reduces one A·T row's four chains s onto its constant c and
// adds the row's remaining terms ai[j]·t[j] from j on, in order.
func finishRow(c float64, s [4]float64, ai, t []float64, j int) float64 {
	sum := c + ((s[0] + s[1]) + (s[2] + s[3]))
	for ; j < len(ai); j++ {
		sum += float64(ai[j] * t[j])
	}
	return sum
}

// axpy is the portable B·P column kernel.
func axpy(y, x []float64, w float64) {
	for i, v := range x {
		y[i] += float64(v * w)
	}
}

// csr holds a square matrix's nonzeros in compressed sparse row form.
type csr struct {
	rowPtr []int // row k's entries are col/val[rowPtr[k]:rowPtr[k+1]]
	col    []int
	val    []float64
}

// newCSR compresses the n×n row-major matrix m, columns ascending.
func newCSR(m []float64, n int) csr {
	nnz := 0
	for _, v := range m[:n*n] {
		if v != 0 {
			nnz++
		}
	}
	s := csr{rowPtr: make([]int, n+1), col: make([]int, 0, nnz), val: make([]float64, 0, nnz)}
	for k := 0; k < n; k++ {
		for j, v := range m[k*n : k*n+n] {
			if v != 0 {
				s.col = append(s.col, j)
				s.val = append(s.val, v)
			}
		}
		s.rowPtr[k+1] = len(s.col)
	}
	return s
}

// mulScaled computes dst = (x·H)·f for the n×n row-major x, where H is
// the receiver. dst must not alias x. Row i of the product walks the
// nonzero entries x[i][k], k ascending, and scatters each into the
// columns where row k of H is nonzero: n²·(nonzeros per row) terms
// rather than n³.
func (h csr) mulScaled(dst, x []float64, f float64) {
	n := len(h.rowPtr) - 1
	for i := 0; i < n; i++ {
		di := dst[i*n : i*n+n]
		clear(di)
		for k, v := range x[i*n : i*n+n] {
			if v == 0 {
				continue
			}
			lo, hi := h.rowPtr[k], h.rowPtr[k+1]
			vals := h.val[lo:hi]
			for p, j := range h.col[lo:hi] {
				di[j] += float64(v * vals[p])
			}
		}
		for j := range di {
			di[j] *= f
		}
	}
}

// matmulRowsPerWorker is the least number of dst rows worth a worker
// of its own in matmul: a worker repacks every panel of y, O(n²), so
// it needs a share of the O(n³) products well above that to pay off.
const matmulRowsPerWorker = 64

// matmulWorkers is how many goroutines matmul splits an n×n product
// across: min(GOMAXPROCS, n/64), at least one. Products below 128 rows
// (the paper's 3-core die has 21) stay on the calling goroutine.
func matmulWorkers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n/matmulRowsPerWorker))
}

// matmul computes dst = x·y for n×n row-major matrices; panel is
// scratch of length w·n for w workers, at least one (build sizes it
// with matmulWorkers). dst must not alias x or y. The rows of dst are
// split into w contiguous blocks, one per goroutine (the first on the
// caller's), and each worker packs its own n-long slice of panel.
// Every dst element is still summed by one goroutine in the order the
// summation rule fixes, so the product's bits do not depend on w or on
// where the blocks split.
func (k *denseKernels) matmul(dst, x, y []float64, panel [][4]float64, n int) {
	w := len(panel) / n
	if w == 1 {
		// No WaitGroup: one would escape to the heap on every call.
		k.matmulRows(dst, x, y, panel[:n], n, 0, n)
		return
	}
	var wg sync.WaitGroup
	for b := 1; b < w; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k.matmulRows(dst, x, y, panel[b*n:b*n+n], n, n*b/w, n*(b+1)/w)
		}()
	}
	k.matmulRows(dst, x, y, panel[:n], n, 0, n/w)
	wg.Wait()
}

// matmulRows is the portable build kernel. After Goto and van de
// Geijn's "Anatomy of High-Performance Matrix Multiplication": four
// columns of y at a time are packed k-major into panel, and each pass
// over it keeps a tile of dst in registers while k runs innermost, so
// every loaded x and panel element feeds several products.
func matmulRows(dst, x, y []float64, panel [][4]float64, n, lo, hi int) {
	for j0 := 0; j0 < n; j0 += 4 {
		w := packPanel(panel, y, n, j0)
		matmulTiles(dst, x, panel, n, j0, w, lo, hi)
	}
}

// packPanel copies columns [j0, j0+w) of the n×n y, w = min(4, n−j0),
// k-major into panel, zero-padding the columns past n, and returns w.
func packPanel(panel [][4]float64, y []float64, n, j0 int) int {
	w := min(4, n-j0)
	for k := range panel {
		pk := panel[k][:]
		clear(pk[copy(pk, y[k*n+j0:k*n+j0+w]):])
	}
	return w
}

// matmulTiles computes the w columns from j0 of rows [lo, hi) of
// dst = x·y from the packed panel, in 2×4 tiles and a 1×4 tile for an
// odd last row. The padded columns are never stored.
func matmulTiles(dst, x []float64, panel [][4]float64, n, j0, w, lo, hi int) {
	i := lo
	for ; i+2 <= hi; i += 2 {
		x0 := x[i*n : i*n+n]
		x1 := x[i*n+n : i*n+2*n]
		x1, pan := x1[:len(x0)], panel[:len(x0)]
		var c00, c01, c02, c03, c10, c11, c12, c13 float64
		for k, a0 := range x0 {
			a1 := x1[k]
			p := &pan[k]
			c00 += float64(a0 * p[0])
			c01 += float64(a0 * p[1])
			c02 += float64(a0 * p[2])
			c03 += float64(a0 * p[3])
			c10 += float64(a1 * p[0])
			c11 += float64(a1 * p[1])
			c12 += float64(a1 * p[2])
			c13 += float64(a1 * p[3])
		}
		r0 := [4]float64{c00, c01, c02, c03}
		r1 := [4]float64{c10, c11, c12, c13}
		copy(dst[i*n+j0:i*n+j0+w], r0[:])
		copy(dst[i*n+n+j0:i*n+n+j0+w], r1[:])
	}
	if i < hi {
		var c0, c1, c2, c3 float64
		for k, a := range x[i*n : i*n+n] {
			p := &panel[k]
			c0 += float64(a * p[0])
			c1 += float64(a * p[1])
			c2 += float64(a * p[2])
			c3 += float64(a * p[3])
		}
		r := [4]float64{c0, c1, c2, c3}
		copy(dst[i*n+j0:i*n+j0+w], r[:])
	}
}

// ExpmStats reports the propagator-cache counters of an Expm
// integrator: cache hits, misses (= propagator builds), entries and
// evictions. ok is false when ig is not the expm scheme. Tests use it
// to assert the memo cache is exact (a repeated span length never
// rebuilds); callers can use it to confirm span lengths are repetitive
// enough for the scheme to pay off.
func ExpmStats(ig Integrator) (hits, misses, entries, evictions int, ok bool) {
	e, isExpm := ig.(*expmIntegrator)
	if !isExpm {
		return 0, 0, 0, 0, false
	}
	return e.hits, e.misses, len(e.cache), e.evictions, true
}
