package thermal

import (
	"math"
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
// with zero truncation error. The topology is immutable after Build, so
// H is assembled once per network; the propagator triple (A, B, b) is
// built per distinct span length by scaling-and-squaring and memoized
// in a small cache keyed by the span's float64 bits — the engine steps
// the thermal model at a fixed sensor period, so the hit rate is
// near-total after the first window. A build's Taylor products exploit
// H's sparsity (O(n²·nnz/row) each); only its few doubling products
// are dense O(n³), and both kernels reproduce the plain triple loop's
// bits exactly.
//
// Dense propagation costs 2n² multiply-adds per span regardless of the
// span length, while substepping costs (substeps × sparse RHS). The
// integrator therefore falls back to explicit Euler (bit-for-bit the
// default scheme) for spans below a crossover where substepping is
// cheaper — short spans on any network, and any span on very large
// networks (manycore tiles) whose mild stiffness needs only a handful
// of sparse substeps.

// expmCacheCap bounds the propagator cache per integrator. Two dense
// n×n matrices per entry make unbounded growth a real memory hazard if
// a caller sweeps span lengths; eviction is FIFO (the steady sensor
// cadence re-primes a evicted span in one build).
const expmCacheCap = 32

// expmSparsePenalty is how much slower one sparse RHS element
// (adjacency chase + capacitance divide) is than one dense propagator
// multiply-add, used by the automatic crossover. Measured ~8-30x on
// amd64; 8 is the conservative end, biasing the crossover toward the
// substepping fallback.
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
// the crossover. All scratch is flat and owned by the integrator: the
// steady-state path (cache hit) performs no allocations.
type expmIntegrator struct {
	net *Network // bound network; a different network resets everything
	n   int

	// Assembled once per network.
	h           []float64 // H = C⁻¹·(-G), n×n row-major
	hs          csr       // H's nonzeros, for the Taylor products
	invC        []float64
	gamb        []float64 // AmbientG_i · Tamb
	normH       float64   // ‖H‖∞
	autoMin     int       // auto crossover: use expm at ≥ this many Euler substeps
	minSubsteps int       // Config override (0 = auto)

	cache map[uint64]*propagator
	order []uint64 // insertion order for FIFO eviction
	hits, misses,
	evictions int

	fallback eulerIntegrator

	// Hot-loop scratch (length n).
	y []float64
	// Build scratch (n×n, allocated on first locally-built miss only),
	// plus the packed n×4 right-hand panel of the dense kernel.
	term, next, prod, phi []float64
	panel                 [][4]float64
}

func newExpm(minSubsteps int) *expmIntegrator {
	return &expmIntegrator{minSubsteps: minSubsteps}
}

func (e *expmIntegrator) Name() string { return Expm.String() }

// MaxStep is unbounded: the propagator is exact for any span length.
// (Spans below the crossover substep via the Euler fallback, but that
// is a cost choice, not a stability bound.)
func (e *expmIntegrator) MaxStep(v View) float64 { return math.Inf(1) }

// bind assembles the dense system matrix and the crossover model for
// the network behind v. Subsequent Advance calls on the same network
// are allocation-free on the cache-hit path.
func (e *expmIntegrator) bind(v View) {
	if e.net == v.n {
		return
	}
	n := v.NumNodes()
	e.net = v.n
	e.n = n
	e.h = make([]float64, n*n)
	e.invC = make([]float64, n)
	e.gamb = make([]float64, n)
	e.y = make([]float64, n)
	e.term, e.next, e.prod = nil, nil, nil
	e.cache = make(map[uint64]*propagator)
	e.order = e.order[:0]
	e.hits, e.misses, e.evictions = 0, 0, 0

	sparseElems := n
	for i := 0; i < n; i++ {
		ci := v.Capacitance(i)
		e.invC[i] = 1 / ci
		e.gamb[i] = v.AmbientG(i) * v.Ambient()
		row := e.h[i*n : (i+1)*n]
		for _, a := range v.Neighbors(i) {
			row[a.Node] = a.G / ci
		}
		row[i] = -v.SumG(i) / ci
		sparseElems += 2 * len(v.Neighbors(i))
	}
	e.hs = newCSR(e.h, n)
	e.normH = 0
	for i := 0; i < n; i++ {
		var s float64
		for _, x := range e.h[i*n : (i+1)*n] {
			s += math.Abs(x)
		}
		if s > e.normH {
			e.normH = s
		}
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
	p := e.propagator(dt)
	n := e.n
	y := e.y
	for i := 0; i < n; i++ {
		ai := p.a[i*n : i*n+n]
		// Four independent accumulator chains hide the FP add latency;
		// the split is fixed, so results are deterministic per scheme.
		var s0, s1, s2, s3 float64
		j := 0
		for ; j+4 <= n; j += 4 {
			s0 += ai[j] * temps[j]
			s1 += ai[j+1] * temps[j+1]
			s2 += ai[j+2] * temps[j+2]
			s3 += ai[j+3] * temps[j+3]
		}
		s := p.c[i] + ((s0 + s1) + (s2 + s3))
		for ; j < n; j++ {
			s += ai[j] * temps[j]
		}
		y[i] = s
	}
	// B·P by columns, visiting only the nodes that dissipate power.
	for j, pj := range power {
		if pj == 0 {
			continue
		}
		btj := p.bt[j*n : j*n+n]
		for i, w := range btj {
			y[i] += w * pj
		}
	}
	copy(temps, y)
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
// content hash of the full dense system and verified element-for-element
// on lookup, so a hit returns a bit-identical propagator to the one a
// local build would produce. Propagators are immutable after build,
// making the shared instances safe for concurrent runs (the parallel
// Runner, the service's exec slots).
const sharedPropCap = 64

// sharedPropEntry is one cached system and span. The entry is published
// before its build runs, so concurrent runs that miss the same system
// wait on done for the one build instead of each starting their own.
type sharedPropEntry struct {
	n             int
	dt            float64
	h, invC, gamb []float64
	p             *propagator   // set before done is closed
	done          chan struct{} // closed once p is built
}

var (
	sharedPropMu sync.Mutex
	sharedProps  = map[uint64][]*sharedPropEntry{}
	sharedPropN  int
	// sharedPropBuilds counts the builds the shared cache has started.
	sharedPropBuilds int
)

// sharedKey hashes (n, dt, H, C⁻¹, Gamb·Tamb) with FNV-1a.
func (e *expmIntegrator) sharedKey(dt float64) uint64 {
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
	mix(uint64(e.n))
	mix(math.Float64bits(dt))
	for _, v := range e.h {
		mix(math.Float64bits(v))
	}
	for _, v := range e.invC {
		mix(math.Float64bits(v))
	}
	for _, v := range e.gamb {
		mix(math.Float64bits(v))
	}
	return h
}

// matches reports whether the entry describes exactly this integrator's
// system and span (guarding against hash collisions).
func (s *sharedPropEntry) matches(e *expmIntegrator, dt float64) bool {
	if s.n != e.n || s.dt != dt {
		return false
	}
	for i, v := range s.h {
		if v != e.h[i] {
			return false
		}
	}
	for i, v := range s.invC {
		if v != e.invC[i] {
			return false
		}
	}
	for i, v := range s.gamb {
		if v != e.gamb[i] {
			return false
		}
	}
	return true
}

// sharedOrBuild returns the propagator for the bound system and span,
// reusing a process-wide cached build when one exists and waiting for
// it when another run is building it.
func (e *expmIntegrator) sharedOrBuild(dt float64) *propagator {
	key := e.sharedKey(dt)
	sharedPropMu.Lock()
	for _, s := range sharedProps[key] {
		if s.matches(e, dt) {
			sharedPropMu.Unlock()
			<-s.done
			return s.p
		}
	}
	if sharedPropN >= sharedPropCap {
		// Dense matrices are the dominant memory; rather than track
		// recency, drop everything and let the few live systems
		// re-prime (one build each). A run waiting on a dropped
		// in-flight entry still receives its build.
		sharedProps = map[uint64][]*sharedPropEntry{}
		sharedPropN = 0
	}
	ent := &sharedPropEntry{
		n: e.n, dt: dt,
		h:    append([]float64(nil), e.h...),
		invC: append([]float64(nil), e.invC...),
		gamb: append([]float64(nil), e.gamb...),
		done: make(chan struct{}),
	}
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
// through the register-tiled kernel. Both kernels keep the summation
// rule below, so every propagator is bit-identical to one built with a
// plain triple loop.
func (e *expmIntegrator) build(dt float64) *propagator {
	n := e.n
	nn := n * n
	if e.term == nil {
		e.term = make([]float64, nn)
		e.next = make([]float64, nn)
		e.prod = make([]float64, nn)
		e.phi = make([]float64, nn)
		e.panel = make([][4]float64, n)
	}
	// Scaling: h = dt/2^s with ‖H‖·h ≤ expmTheta.
	s := 0
	for e.normH*math.Ldexp(dt, -s) > expmTheta && s < 200 {
		s++
	}
	h := math.Ldexp(dt, -s)

	a := make([]float64, nn) // accumulates e^{H·h}; escapes into the propagator
	phi := e.phi             // accumulates ∫₀^h e^{Hs} ds; folded into bt below
	term := e.term           // X^k/k! with X = H·h
	for i := range term {
		term[i] = 0
		phi[i] = 0
	}
	for i := 0; i < n; i++ {
		a[i*n+i] = 1
		phi[i*n+i] = h
		term[i*n+i] = 1
	}
	for k := 1; k <= expmMaxTerms; k++ {
		// term ← term·X/k = term·(H·h)/k.
		e.hs.mulScaled(e.next, term, h/float64(k))
		term, e.next = e.next, term
		f := h / float64(k+1)
		var maxAbs float64
		for i, t := range term {
			a[i] += t
			phi[i] += t * f
			if t = math.Abs(t); t > maxAbs {
				maxAbs = t
			}
		}
		if maxAbs < 1e-18 {
			break
		}
	}
	e.term = term
	// Doubling back to the full span.
	for ; s > 0; s-- {
		matmul(e.prod, a, phi, e.panel, n)
		for i := range phi {
			phi[i] += e.prod[i]
		}
		matmul(e.prod, a, a, e.panel, n)
		a, e.prod = e.prod, a
	}
	// B = Φ·C⁻¹ (scale columns); b = Φ·(C⁻¹·Gamb·Tamb) = B·(Gamb·Tamb).
	// B is stored transposed for the column-walk in Advance.
	for i := 0; i < n; i++ {
		row := phi[i*n : i*n+n]
		for j := 0; j < n; j++ {
			row[j] *= e.invC[j]
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
			sum += row[j] * e.gamb[j]
		}
		c[i] = sum
	}
	return &propagator{a: a, bt: bt, c: c}
}

// The two build kernels keep one summation rule, which makes their
// output independent of how they block the loops: every output element
// is the sum over k, in increasing k order, starting from +0, of
// products each rounded on its own (the float64 conversions forbid the
// compiler from fusing a multiply-add, as it may on some
// architectures). Under round-to-nearest a sum that starts at +0 never
// becomes −0, and adding ±0 to it changes nothing, so skipping an
// exact-zero product or adding one leaves every bit unchanged.

// csr holds a square matrix's nonzeros in compressed sparse row form.
type csr struct {
	rowPtr []int // row k's entries are col/val[rowPtr[k]:rowPtr[k+1]]
	col    []int
	val    []float64
}

// newCSR compresses the n×n row-major matrix m, columns ascending.
func newCSR(m []float64, n int) csr {
	s := csr{rowPtr: make([]int, n+1)}
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

// matmul computes dst = x·y for n×n row-major matrices; panel is
// scratch of length n. dst must not alias x or y. After Goto and van
// de Geijn's "Anatomy of High-Performance Matrix Multiplication": four
// columns of y at a time are packed k-major into panel, and each pass
// over it keeps a 2×4 tile of dst in registers while k runs innermost,
// so every loaded x and panel element feeds several products. Columns
// past n in the last panel are zero-padded and never stored; an odd
// last row takes a 1×4 tile.
func matmul(dst, x, y []float64, panel [][4]float64, n int) {
	panel = panel[:n]
	for j0 := 0; j0 < n; j0 += 4 {
		w := min(4, n-j0)
		for k := range panel {
			pk := panel[k][:]
			clear(pk[copy(pk, y[k*n+j0:k*n+j0+w]):])
		}
		i := 0
		for ; i+2 <= n; i += 2 {
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
		if i < n {
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
