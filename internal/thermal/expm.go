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
// near-total after the first window.
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
	// Build scratch (n×n, allocated on first locally-built miss only).
	term, next, prod, phi []float64
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
// otherwise be rebuilt per run — and a build (n³ matmuls) costs as much
// as hundreds of propagated spans. Entries are keyed by a content hash
// of the full dense system and verified element-for-element on lookup,
// so a hit returns a bit-identical propagator to the one a local build
// would produce. Propagators are immutable after build, making the
// shared instances safe for concurrent runs (the parallel Runner).
const sharedPropCap = 64

type sharedPropEntry struct {
	n             int
	dt            float64
	h, invC, gamb []float64
	p             *propagator
}

var (
	sharedPropMu sync.Mutex
	sharedProps  = map[uint64][]*sharedPropEntry{}
	sharedPropN  int
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
// reusing a process-wide cached build when one exists.
func (e *expmIntegrator) sharedOrBuild(dt float64) *propagator {
	key := e.sharedKey(dt)
	sharedPropMu.Lock()
	for _, s := range sharedProps[key] {
		if s.matches(e, dt) {
			sharedPropMu.Unlock()
			return s.p
		}
	}
	sharedPropMu.Unlock()
	p := e.build(dt)
	ent := &sharedPropEntry{
		n: e.n, dt: dt,
		h:    append([]float64(nil), e.h...),
		invC: append([]float64(nil), e.invC...),
		gamb: append([]float64(nil), e.gamb...),
		p:    p,
	}
	sharedPropMu.Lock()
	if sharedPropN >= sharedPropCap {
		// Dense matrices are the dominant memory; rather than track
		// recency, drop everything and let the few live systems
		// re-prime (one build each).
		sharedProps = map[uint64][]*sharedPropEntry{}
		sharedPropN = 0
	}
	sharedProps[key] = append(sharedProps[key], ent)
	sharedPropN++
	sharedPropMu.Unlock()
	return p
}

// build computes the propagator by scaling-and-squaring: the Taylor
// series of the pair (e^{X}, ∫e^{Xs}ds) at a step scaled to
// ‖X‖ ≤ expmTheta, then repeated doubling
//
//	A(2h) = A(h)·A(h),   Φ(2h) = Φ(h) + A(h)·Φ(h)
//
// back to the full span. Φ·C⁻¹ and the ambient forcing are folded in
// at the end.
func (e *expmIntegrator) build(dt float64) *propagator {
	n := e.n
	nn := n * n
	if e.term == nil {
		e.term = make([]float64, nn)
		e.next = make([]float64, nn)
		e.prod = make([]float64, nn)
		e.phi = make([]float64, nn)
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
		matmulScaled(e.next, term, e.h, n, h/float64(k))
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
		matmulScaled(e.prod, a, phi, n, 1)
		for i := range phi {
			phi[i] += e.prod[i]
		}
		matmulScaled(e.prod, a, a, n, 1)
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

// matmulScaled computes dst = (x·y)·f for n×n row-major matrices.
// dst must not alias x or y. The i-k-j loop order keeps the inner loop
// a contiguous saxpy over y's rows.
func matmulScaled(dst, x, y []float64, n int, f float64) {
	for i := 0; i < n; i++ {
		di := dst[i*n : i*n+n]
		for j := range di {
			di[j] = 0
		}
		xi := x[i*n : i*n+n]
		for k := 0; k < n; k++ {
			v := xi[k]
			if v == 0 {
				continue
			}
			yk := y[k*n : k*n+n]
			for j, w := range yk {
				di[j] += v * w
			}
		}
		for j := range di {
			di[j] *= f
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
