package thermal

// eulerIntegrator is the explicit forward-Euler scheme, the default and
// the reference. Its substep loop runs in edge form: one pass over the
// edges in Build order computes each conductance's flux
// f = g·(T_b − T_a) once, adds it to node a's inflow and subtracts it
// from node b's; one node pass then adds the ambient term and updates
// T. It reproduces the seed's node form (each node summing
// g·(T_j − T_i) over its adjacency) bit for bit: Build appends both
// endpoints' adjacency edge by edge, so each node gets the same terms
// in the same order, and x−y = −(y−x) and g·(−d) = −(g·d) exactly.
// Only a zero inflow's sign can differ, which moves a temperature only
// if that temperature is exactly −0 °C. The float64 conversions round
// each product on its own, so no architecture fuses a multiply-add.
type eulerIntegrator struct {
	q []float64 // per-node heat inflow (W) of the current substep
}

func (e *eulerIntegrator) Name() string { return Euler.String() }

func (e *eulerIntegrator) MaxStep(v View) float64 { return v.EulerMaxStep() }

func (e *eulerIntegrator) Advance(v View, temps []float64, dt float64, power []float64) {
	net := v.n
	if cap(e.q) < len(temps) {
		e.q = make([]float64, len(temps))
	}
	q := e.q[:len(temps)]
	copy(q, power)
	for dt > 0 {
		h := dt
		if h > net.maxStep {
			h = net.maxStep
		}
		for _, ed := range net.edges {
			f := float64(ed.g * (temps[ed.b] - temps[ed.a]))
			q[ed.a] += f
			q[ed.b] -= f
		}
		for i, nd := range net.nodes {
			qi := q[i] + float64(nd.AmbientG*(net.ambient-temps[i]))
			temps[i] += float64(h * (qi / nd.Capacitance))
			q[i] = power[i]
		}
		dt -= h
	}
}
