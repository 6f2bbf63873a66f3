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
// per distinct span length by scaling-and-squaring into a process-wide
// table, and each integrator holds the last one it used with its span
// length — the engine steps the thermal model at a fixed sensor
// period, so after the first window every span finds the held
// propagator. The integrator itself holds only O(n + nnz) state: H and
// every other n×n matrix exist only inside a build and in the
// propagators in use, so a network that never propagates densely never
// allocates one. A build's Taylor products exploit H's sparsity
// (O(n²·nnz/column) each, gathered by H's columns); only its few
// doubling products are dense O(n³). Both phases split their rows
// across up to GOMAXPROCS goroutines once n reaches 128, and both
// reproduce the plain triple loop's bits exactly, so a propagator's
// bits depend neither on GOMAXPROCS, nor on how the rows are split,
// nor on whether the host runs the portable, the AVX or the AVX-512
// dense kernels.
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

// propagator is the exact-step triple for one span length. It is
// immutable once built, so one instance may be shared between
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

// expmIntegrator advances the network by exact dense propagation,
// falling back to explicit Euler below the crossover. It holds the
// propagator of the last dense span: a span of the same length (a hit)
// performs no allocations and no lookup, and a span of another length
// (a miss) replaces it from the shared table. Its own state is O(n);
// n×n matrices live only in the held propagator, the shared table and,
// transiently, in build.
type expmIntegrator struct {
	net *Network // bound network; a different network resets everything
	n   int

	autoMin int // crossover: use expm at ≥ this many Euler substeps

	heldDT       float64
	held         *propagator // nil until the first dense span
	hits, misses int

	fallback eulerIntegrator

	// Hot-loop scratch (length n).
	y []float64
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
// held-propagator path.
func (e *expmIntegrator) bind(v View) {
	if e.net == v.n {
		return
	}
	n := v.NumNodes()
	e.net = v.n
	e.n = n
	e.y = make([]float64, n)
	e.held = nil
	e.hits, e.misses = 0, 0

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
	return int(math.Ceil(dt/e.net.maxStep)) >= e.autoMin
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

// propagator returns the (A, B, b) triple for the span: the held one
// when the span has its length, else the shared table's, which then
// becomes the held one. Every call counts one hit or one miss.
func (e *expmIntegrator) propagator(dt float64) *propagator {
	if e.held != nil && e.heldDT == dt {
		e.hits++
		return e.held
	}
	e.misses++
	e.heldDT, e.held = dt, e.sharedOrBuild(dt)
	return e.held
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
// at the end. The Taylor products right-multiply by the sparse H, each
// element gathered down one column of H (taylorRows); only the
// doubling products are dense O(n³), through the register-tiled
// kernel (a 4×8 zmm tile on AVX-512 hosts). Both phases split their
// rows across goroutines on large networks and keep the summation rule
// below, so every propagator is bit-identical to one built with a
// plain triple loop, whatever GOMAXPROCS is and whichever dense
// kernels run. H and all scratch are local: only the returned
// propagator outlives the call.
func (e *expmIntegrator) build(dt float64) *propagator {
	v := View{n: e.net}
	n := e.n
	nn := n * n
	hs := newCSC(v)
	invC := make([]float64, n)
	gamb := make([]float64, n) // AmbientG_i · Tamb
	for i := 0; i < n; i++ {
		invC[i] = 1 / v.Capacitance(i)
		gamb[i] = v.AmbientG(i) * v.Ambient()
	}
	normH := hs.normInf()
	// Scaling: h = dt/2^s with ‖H‖·h ≤ expmTheta.
	s := 0
	for normH*math.Ldexp(dt, -s) > expmTheta && s < 200 {
		s++
	}
	h := math.Ldexp(dt, -s)

	a := make([]float64, nn)   // accumulates e^{H·h}; escapes into the propagator
	phi := make([]float64, nn) // accumulates ∫₀^h e^{Hs} ds; becomes bt below
	prod := hs.taylor(a, phi, h)
	// Doubling back to the full span; the Taylor buffers are free now.
	panel := matmulPanels(n)
	for ; s > 0; s-- {
		kernels.matmul(prod, a, phi, panel, n)
		for i := range phi {
			phi[i] += prod[i]
		}
		kernels.matmul(prod, a, a, panel, n)
		a, prod = prod, a
	}
	// B = Φ·C⁻¹ (scale columns); b = Φ·(C⁻¹·Gamb·Tamb) = B·(Gamb·Tamb).
	c := make([]float64, n)
	for i := 0; i < n; i++ {
		row := phi[i*n : i*n+n]
		var sum float64
		for j := range row {
			row[j] *= invC[j]
			sum += float64(row[j] * gamb[j])
		}
		c[i] = sum
	}
	// B is stored transposed, in Φ's own storage, for the column walk
	// of step.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			phi[i*n+j], phi[j*n+i] = phi[j*n+i], phi[i*n+j]
		}
	}
	return &propagator{a: a, bt: phi, c: c}
}

// csc holds H = C⁻¹·(−G) in compressed sparse column form, rows
// ascending within each column.
type csc struct {
	colPtr []int // column j's entries are row/val[colPtr[j]:colPtr[j+1]]
	row    []int
	val    []float64
}

// newCSC builds H of the network behind v by columns, straight from
// its adjacency: row i holds G_ij/C_i in column j for each neighbor j
// and −SumG_i/C_i on its diagonal. A neighbor listed twice (two
// parallel conductances) gives two entries, so their terms both enter
// every product, as both enter SumG and the Euler scheme's fluxes.
func newCSC(v View) csc {
	n := v.NumNodes()
	colPtr := make([]int, n+1)
	for i := 0; i < n; i++ {
		for _, a := range v.Neighbors(i) {
			colPtr[a.Node+1]++
		}
		colPtr[i+1]++
	}
	for j := 0; j < n; j++ {
		colPtr[j+1] += colPtr[j]
	}
	h := csc{colPtr: colPtr, row: make([]int, colPtr[n]), val: make([]float64, colPtr[n])}
	next := slices.Clone(colPtr[:n]) // each column's next free slot
	put := func(i, j int, x float64) {
		h.row[next[j]], h.val[next[j]] = i, x
		next[j]++
	}
	// Rows in ascending order fill every column in ascending row order.
	for i := 0; i < n; i++ {
		ci := v.Capacitance(i)
		for _, a := range v.Neighbors(i) {
			put(i, a.Node, a.G/ci)
		}
		put(i, i, -v.SumG(i)/ci)
	}
	return h
}

// normInf returns ‖H‖∞, each row's magnitudes summed in ascending
// column order.
func (h *csc) normInf() float64 {
	rowSum := make([]float64, len(h.colPtr)-1)
	for p, i := range h.row {
		rowSum[i] += math.Abs(h.val[p])
	}
	var norm float64
	for _, s := range rowSum {
		if s > norm {
			norm = s
		}
	}
	return norm
}

// taylor sums the Taylor series of the pair (e^{X}, ∫₀^step e^{Hs} ds),
// X = H·step, into a and phi, which must be zero on entry: term_k =
// X^k/k! = term_{k−1}·X/k, added to a and, times step/(k+1), to phi,
// until a term's largest magnitude falls below 1e−18. It returns an
// n×n scratch matrix the caller may reuse. Rows are independent
// through the series, so they are split across matmulWorkers(n)
// goroutines per term.
func (h *csc) taylor(a, phi []float64, step float64) []float64 {
	n := len(h.colPtr) - 1
	term, next := make([]float64, n*n), make([]float64, n*n)
	w := matmulWorkers(n)
	// Each worker sets its own rows' diagonals, so the first touches of
	// the fresh matrices, a page fault each, are split as the rows are.
	forRowBlocks(n, w, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i*n+i] = 1
			phi[i*n+i] = step
			term[i*n+i] = 1
		}
	})
	maxAbs := make([]float64, w) // each worker's largest |term|
	for k := 1; k <= expmMaxTerms; k++ {
		g, f := step/float64(k), step/float64(k+1)
		forRowBlocks(n, w, func(b, lo, hi int) {
			maxAbs[b] = h.taylorRows(next, term, a, phi, g, f, lo, hi)
		})
		term, next = next, term
		var m float64
		for _, x := range maxAbs {
			m = max(m, x)
		}
		if m < 1e-18 {
			break
		}
	}
	return next
}

// taylorRows computes rows [lo, hi) of next = (term·H)·g, adds each new
// element t to a and float64(t·f) to phi, and returns the rows' largest
// |t|. It gathers every element down one column of H, k ascending from
// +0; four rows at a time share each column's index and value loads,
// in four independent chains. The terms with term[i][k] = 0, which a
// scatter over term's nonzeros would skip, add ±0 to a sum that is
// never −0, so they change no bit.
func (h *csc) taylorRows(next, term, a, phi []float64, g, f float64, lo, hi int) float64 {
	n := len(h.colPtr) - 1
	var m float64
	i := lo
	for ; i+4 <= hi; i += 4 {
		t0 := term[i*n : i*n+n]
		t1 := term[i*n+n : i*n+2*n]
		t2 := term[i*n+2*n : i*n+3*n]
		t3 := term[i*n+3*n : i*n+4*n]
		for j := 0; j < n; j++ {
			rows, vals := h.column(j)
			var s0, s1, s2, s3 float64
			for p, r := range rows {
				x := vals[p]
				s0 += float64(t0[r] * x)
				s1 += float64(t1[r] * x)
				s2 += float64(t2[r] * x)
				s3 += float64(t3[r] * x)
			}
			m = taylorFold(next, a, phi, i*n+j, s0, g, f, m)
			m = taylorFold(next, a, phi, i*n+n+j, s1, g, f, m)
			m = taylorFold(next, a, phi, i*n+2*n+j, s2, g, f, m)
			m = taylorFold(next, a, phi, i*n+3*n+j, s3, g, f, m)
		}
	}
	for ; i < hi; i++ {
		ti := term[i*n : i*n+n]
		for j := 0; j < n; j++ {
			rows, vals := h.column(j)
			var s float64
			for p, r := range rows {
				s += float64(ti[r] * vals[p])
			}
			m = taylorFold(next, a, phi, i*n+j, s, g, f, m)
		}
	}
	return m
}

// column returns column j's row indices and values.
func (h *csc) column(j int) ([]int, []float64) {
	rows := h.row[h.colPtr[j]:h.colPtr[j+1]]
	return rows, h.val[h.colPtr[j]:][:len(rows)]
}

// taylorFold stores t = s·g, rounded, as next[i], adds it to a[i] and
// float64(t·f) to phi[i], and returns the larger of m and |t|. The
// conversion rounds s·g before the adds: Go may fuse a product into an
// add even across statements.
func taylorFold(next, a, phi []float64, i int, s, g, f, m float64) float64 {
	t := float64(s * g)
	next[i] = t
	a[i] += t
	phi[i] += float64(t * f)
	if t = math.Abs(t); t > m {
		return t
	}
	return m
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
// Where the host also has AVX-512F, the build's tile is 4×8 with zmm
// accumulators over 8-column panels; the dense step, bound by memory
// rather than by its arithmetic, keeps the AVX forms.

// denseKernels is one implementation of the dense loops.
type denseKernels struct {
	// matmulRows computes rows [lo, hi) of dst = x·y for n×n row-major
	// matrices; panel is scratch of length 2n.
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

// matmulPanels returns the panel scratch matmul needs for an n×n
// product: room for one n-row panel of eight columns per worker.
func matmulPanels(n int) [][4]float64 {
	return make([][4]float64, 2*n*matmulWorkers(n))
}

// matmul computes dst = x·y for n×n row-major matrices; panel is
// scratch of length 2n per worker, for at least one worker (build sizes
// it with matmulPanels). dst must not alias x or y. The rows of dst are
// split into w contiguous blocks, one per goroutine, and each worker
// packs its own 2n-long slice of panel. Every dst element is still
// summed by one goroutine in the order the summation rule fixes, so the
// product's bits do not depend on w or on where the blocks split.
func (k *denseKernels) matmul(dst, x, y []float64, panel [][4]float64, n int) {
	forRowBlocks(n, len(panel)/(2*n), func(b, lo, hi int) {
		k.matmulRows(dst, x, y, panel[2*b*n:2*(b+1)*n], n, lo, hi)
	})
}

// forRowBlocks splits the rows [0, n) into w contiguous blocks and calls
// fn(b, lo, hi) for each block b, the first on the calling goroutine
// and the others on goroutines of their own, and returns once all are
// done.
func forRowBlocks(n, w int, fn func(b, lo, hi int)) {
	if w == 1 {
		// No WaitGroup: one would escape to the heap on every call.
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for b := 1; b < w; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(b, n*b/w, n*(b+1)/w)
		}()
	}
	fn(0, 0, n/w)
	wg.Wait()
}

// matmulRows is the portable build kernel. After Goto and van de
// Geijn's "Anatomy of High-Performance Matrix Multiplication": four
// columns of y at a time are packed k-major into panel, and each pass
// over it keeps a tile of dst in registers while k runs innermost, so
// every loaded x and panel element feeds several products.
func matmulRows(dst, x, y []float64, panel [][4]float64, n, lo, hi int) {
	panel = panel[:n]
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

// ExpmStats reports the held-propagator counters of an Expm
// integrator: hits (a dense span of the held propagator's length),
// misses (a dense span of another length, served by the shared table),
// entries (1 once a propagator is held, else 0) and evictions (held
// propagators replaced by another length's). Each dense span counts
// one hit or one miss; an Euler-fallback span counts neither. ok is
// false when ig is not the expm scheme. Tests use it to assert a
// repeated span length never looks a propagator up again; callers can
// use it to confirm span lengths are repetitive enough for the scheme
// to pay off.
func ExpmStats(ig Integrator) (hits, misses, entries, evictions int, ok bool) {
	e, isExpm := ig.(*expmIntegrator)
	if !isExpm {
		return 0, 0, 0, 0, false
	}
	if e.held != nil {
		entries = 1
	}
	return e.hits, e.misses, entries, e.misses - entries, true
}
