package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"thermbal/internal/experiment"
	"thermbal/internal/obs"
	"thermbal/internal/policy"
	"thermbal/internal/service"
	"thermbal/internal/sim"
	"thermbal/internal/thermal"
)

// maxSpans bounds the spans a traced run keeps in memory. Spans are
// kept per root (a config or a request) whole or not at all, so every
// kept span's self time is exact.
const maxSpans = 50_000

// span is one timed call into a layer.
type span struct {
	TraceID  uint64 `json:"trace_id"`
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	SelfNs   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin  time.Time
	next    uint64
	keep    bool   // record spans (off after the first replay)
	pending []span // the current root's spans
	spans   []span
	dropped int // roots whose spans did not fit under maxSpans
}

func newTracer() *tracer { return &tracer{origin: time.Now(), keep: true} }

func (t *tracer) id() uint64 {
	t.next++
	return t.next
}

func (t *tracer) add(trace, id, parent uint64, name string, start, end time.Time) {
	if !t.keep || len(t.spans) >= maxSpans {
		return
	}
	t.pending = append(t.pending, span{
		TraceID: trace, SpanID: id, ParentID: parent, Name: name,
		StartNs: start.Sub(t.origin).Nanoseconds(), EndNs: end.Sub(t.origin).Nanoseconds(),
	})
}

// commit ends the current root: its spans are kept if they all fit.
func (t *tracer) commit() {
	if !t.keep {
		return
	}
	if len(t.pending) > 0 && len(t.spans)+len(t.pending) <= maxSpans {
		t.spans = append(t.spans, t.pending...)
	} else {
		t.dropped++
	}
	t.pending = t.pending[:0]
}

// write stores the kept spans as JSON lines with their self times: a
// span's duration minus the part its children cover.
func (t *tracer) write(path string) error {
	child := map[uint64]int64{}
	for _, s := range t.spans {
		child[s.ParentID] += s.EndNs - s.StartNs
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		s.SelfNs = s.EndNs - s.StartNs - child[s.SpanID]
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// acc accumulates one replay's per-layer counts and times.
type acc struct {
	advCalls, substeps int64
	adv                time.Duration
	decCalls, actions  int64
	dec                time.Duration
	periods            []float64 // µs
	period             time.Duration
	ticks              int64
	inst, summ         time.Duration
	expmHits, expmMiss int64
	wall               time.Duration // sum of root spans
	simS               float64
}

// scope is where the wrappers attach their spans: the current trace
// and sensor-period span.
type scope struct {
	tr            *tracer
	a             *acc
	trace, parent uint64
}

// tracedIntegrator times thermal.Integrator.Advance and counts its
// substeps: one per dense expm propagation, else the Euler substeps
// the span needs.
type tracedIntegrator struct {
	inner thermal.Integrator
	sc    *scope
}

func (w *tracedIntegrator) Name() string                   { return w.inner.Name() }
func (w *tracedIntegrator) MaxStep(v thermal.View) float64 { return w.inner.MaxStep(v) }
func (w *tracedIntegrator) expm() (lookups int64, isExpm bool) {
	h, m, _, _, ok := thermal.ExpmStats(w.inner)
	return int64(h + m), ok
}

func (w *tracedIntegrator) Advance(v thermal.View, temps []float64, dt float64, power []float64) {
	before, isExpm := w.expm()
	t0 := time.Now()
	w.inner.Advance(v, temps, dt, power)
	t1 := time.Now()
	after, _ := w.expm()
	a := w.sc.a
	a.advCalls++
	a.adv += t1.Sub(t0)
	switch {
	case dt <= 0:
	case isExpm && after > before:
		a.substeps++
	default:
		a.substeps += int64(math.Ceil(dt / v.EulerMaxStep()))
	}
	w.sc.tr.add(w.sc.trace, w.sc.tr.id(), w.sc.parent, "thermal.advance", t0, t1)
}

// tracedPolicy times policy.Policy.Decide and counts its actions.
type tracedPolicy struct {
	inner policy.Policy
	sc    *scope
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Decide(s *policy.Snapshot) []policy.Action {
	t0 := time.Now()
	acts := p.inner.Decide(s)
	t1 := time.Now()
	a := p.sc.a
	a.decCalls++
	a.actions += int64(len(acts))
	a.dec += t1.Sub(t0)
	p.sc.tr.add(p.sc.trace, p.sc.tr.id(), p.sc.parent, "policy.decide", t0, t1)
	return acts
}

// tracedRun executes one canonical run with every layer timed:
// instantiation, the engine one sensor period per Run call (re-entry
// is bit-identical to one long Run), and the summary. Spans hang off
// root.
func tracedRun(sc *scope, rc experiment.RunConfig, root uint64) (sim.Result, error) {
	tr, a := sc.tr, sc.a
	sc.parent = root
	t0 := time.Now()
	e, inst, err := build(rc, func(p policy.Policy) policy.Policy { return &tracedPolicy{inner: p, sc: sc} })
	if err != nil {
		return sim.Result{}, err
	}
	net := inst.Platform.Thermal.Net
	ig := net.Integrator()
	net.SetIntegrator(&tracedIntegrator{inner: ig, sc: sc})
	t1 := time.Now()
	a.inst += t1.Sub(t0)
	tr.add(sc.trace, tr.id(), root, "scenario.instantiate", t0, t1)

	endTicks := int64((rc.WarmupS+rc.MeasureS)/100e-6 + 0.5)
	runID := tr.id()
	r0 := time.Now()
	// One clock read per period boundary: each period's bookkeeping is
	// charged to the next period, keeping the overhead per period low.
	p0 := r0
	for e.Ticks() < endTicks {
		id := tr.id()
		sc.parent = id
		err := e.Run(sensorPeriodS)
		p1 := time.Now()
		d := p1.Sub(p0)
		a.period += d
		a.periods = append(a.periods, float64(d)/1e3)
		tr.add(sc.trace, id, runID, "sim.period", p0, p1)
		if err != nil {
			return sim.Result{}, err
		}
		p0 = p1
	}
	tr.add(sc.trace, runID, root, "sim.run", r0, p0)
	sc.parent = root
	a.ticks += e.Ticks()
	a.simS += rc.WarmupS + rc.MeasureS
	if h, m, _, _, ok := thermal.ExpmStats(ig); ok {
		a.expmHits += int64(h)
		a.expmMiss += int64(m)
	}

	s0 := time.Now()
	res := e.Summarize()
	s1 := time.Now()
	a.summ += s1.Sub(s0)
	tr.add(sc.trace, tr.id(), root, "experiment.summarize", s0, s1)
	return res, nil
}

// engineMetrics turns one replay's accumulators into the engine-layer
// metrics. layered is the time the replay's roots spent in timed
// layers outside the engine (service and store calls).
func engineMetrics(a *acc, layered time.Duration) map[string]float64 {
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	pct := func(d time.Duration) float64 {
		if a.wall <= 0 {
			return 0
		}
		return 100 * float64(d) / float64(a.wall)
	}
	self := a.period - a.adv - a.dec
	m := map[string]float64{
		"thermal.advance.calls":   float64(a.advCalls),
		"thermal.advance.self_us": us(a.adv),
		"thermal.substeps":        float64(a.substeps),
		"thermal.share":           pct(a.adv),
		"thermal.expm.builds":     float64(a.expmMiss),
		"policy.decide.calls":     float64(a.decCalls),
		"policy.decide.self_us":   us(a.dec),
		"policy.actions":          float64(a.actions),
		"policy.share":            pct(a.dec),
		"sim.period_us.p50":       quantile(a.periods, 0.5),
		"sim.period_us.p99":       quantile(a.periods, 0.99),
		"sim.self_us":             us(self),
		"sim.share":               pct(self),
		"scenario.instantiate_us": us(a.inst),
		"experiment.summarize_us": us(a.summ),
		"residual_pct":            pct(a.wall - a.inst - a.period - a.summ - layered),
	}
	if n := a.expmHits + a.expmMiss; n > 0 {
		m["thermal.expm.hit_ratio"] = float64(a.expmHits) / float64(n)
	}
	if a.period > 0 {
		m["sim.ticks_per_host_s"] = float64(a.ticks) / a.period.Seconds()
	}
	return m
}

// setMedians records, for every metric, its median over the replays.
func setMedians(rec *recorder, reps []map[string]float64) {
	vals := map[string][]float64{}
	for _, r := range reps {
		for k, v := range r {
			vals[k] = append(vals[k], v)
		}
	}
	for k, v := range vals {
		rec.set(k, median(v), len(v))
	}
}

// traceOut is the trace file for a workload.
func traceOut(o Options, workload string) string {
	return filepath.Join(o.Out, "trace-"+workload+".jsonl")
}

// finishTrace writes the spans and notes how many roots were dropped.
func finishTrace(o Options, workload string, tr *tracer, rec *recorder) error {
	if tr.dropped > 0 {
		rec.note(fmt.Sprintf("spans of %d roots beyond the first %d spans were not kept", tr.dropped, maxSpans))
	}
	return tr.write(traceOut(o, workload))
}

// ---------------------------------------------------------------------
// Batch.

// traceBatch replays every config of a batch workload with all layers
// timed, each traced run followed by the same config untraced, for the
// run's seconds. Per-layer metrics are medians over the replays; spans
// are kept from the first. Every traced document must match its golden
// digest. The tracing overhead compares each config's fastest traced
// run with its fastest untraced one, so host noise cancels as it does
// for the untraced best-of-N pass.
func traceBatch(workload string, o Options, rec *recorder) error {
	cases, err := batchCases(workload)
	if err != nil {
		return err
	}
	g, err := golden()
	if err != nil {
		return err
	}
	tr := newTracer()
	traced := make([]time.Duration, len(cases)) // fastest per config
	untraced := make([]time.Duration, len(cases))
	var reps []map[string]float64
	deadline := time.Now().Add(time.Duration(o.Seconds * float64(time.Second)))
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		a := &acc{}
		sc := &scope{tr: tr, a: a}
		for i, c := range cases {
			root := tr.id()
			sc.trace = root
			t0 := time.Now()
			res, err := tracedRun(sc, c.rc, root)
			t1 := time.Now()
			tr.add(root, root, 0, "config", t0, t1)
			tr.commit()
			a.wall += t1.Sub(t0)
			if err == nil {
				err = checkDigest(c, res, g[workload][c.label])
			}
			rec.op(wrapLabel(c.label, err))

			u0 := time.Now()
			if _, _, err := experiment.Run(c.rc); err != nil {
				return fmt.Errorf("%s: %w", c.label, err)
			}
			u := time.Since(u0)
			if rep == 0 {
				traced[i], untraced[i] = t1.Sub(t0), u
			}
			traced[i], untraced[i] = min(traced[i], t1.Sub(t0)), min(untraced[i], u)
		}
		reps = append(reps, engineMetrics(a, 0))
		tr.keep = false
	}
	setMedians(rec, reps)

	var tracedSum, untracedSum time.Duration
	var simS float64
	overhead := map[string]map[string]float64{}
	for i, c := range cases {
		tracedSum += traced[i]
		untracedSum += untraced[i]
		simS += c.rc.WarmupS + c.rc.MeasureS
		overhead[c.label] = map[string]float64{
			"traced_ms":   float64(traced[i]) / 1e6,
			"untraced_ms": float64(untraced[i]) / 1e6,
		}
	}
	rec.set("trace.overhead_pct", 100*float64(tracedSum-untracedSum)/float64(untracedSum), len(reps))
	rec.set("sim.speed", simS/untracedSum.Seconds(), len(reps))
	if err := writeJSON(filepath.Join(o.Out, "trace-"+workload+".overhead.json"), overhead); err != nil {
		return err
	}
	return finishTrace(o, workload, tr, rec)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func wrapLabel(label string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", label, err)
}

// ---------------------------------------------------------------------
// Service.

// timed runs fn and returns its duration, recording a span.
func timed(tr *tracer, trace, parent uint64, name string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	tr.add(trace, tr.id(), parent, name, t0, t1)
	return t1.Sub(t0)
}

// serveHandler sends one request body through an in-process handler
// and returns the reply and when the handler started and returned.
func serveHandler(h http.Handler, body []byte) (w *httptest.ResponseRecorder, t0, t1 time.Time) {
	req := httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body))
	w = httptest.NewRecorder()
	t0 = time.Now()
	h.ServeHTTP(w, req)
	return w, t0, time.Now()
}

// httpLayer runs short open-loop lo and hi phases against a real
// thermservd with t and records what the headers and /proc show: the
// X-Timing stage medians, the X-Cache outcome shares, generator slop,
// per-phase latency quantiles, server CPU per request and the HTTP
// residual (TCP p50 at lo minus the in-process handler p50).
func httpLayer(o Options, rec *recorder, s *servd, client *http.Client, t target, lo, hi float64, handlerP50us float64, after func(from, to int)) error {
	stages := map[string][]float64{}
	outcomes := map[string]int{}
	var mu sync.Mutex
	t.observe = func(r reply) {
		v, err := obs.ParseHeaderValue(r.timing)
		mu.Lock()
		defer mu.Unlock()
		outcomes[r.cache]++
		if err == nil {
			for k, us := range v {
				stages[k] = append(stages[k], float64(us))
			}
		}
	}
	quarter := time.Duration(o.Seconds / 4 * float64(time.Second))
	load, err := drive(client, s, t, rec, plan{loRPS: lo, hiRPS: hi, lo: quarter, hi: quarter}, after)
	if err != nil {
		return err
	}
	for _, st := range []string{"queue", "execute", "encode", "store", "total"} {
		rec.set("xt."+st+"_us.p50", median(stages[st]), len(stages[st]))
	}
	total := 0
	for _, n := range outcomes {
		total += n
	}
	for _, oc := range []string{"hit", "store", "miss", "coalesced"} {
		rec.set("xc."+oc, float64(outcomes[oc])/float64(max(total, 1)), total)
	}
	lates := lateUs(load.samples)
	rec.set("gen.late_us.p50", quantile(lates, 0.5), len(lates))
	rec.set("gen.late_us.p99", quantile(lates, 0.99), len(lates))
	for name, ph := range map[string]phaseStats{"lo": load.lo, "hi": load.hi} {
		rec.set(name+".p50_ms", ph.p50, ph.n)
		rec.set(name+".p90_ms", ph.p90, ph.n)
		rec.set(name+".p99_ms", ph.p99, ph.n)
	}
	rec.set("service.cpu_ms_per_req", load.cpuMs, len(load.samples))
	rec.set("http.residual_us", load.lo.p50*1e3-handlerP50us, load.lo.n)
	return nil
}

// traceCold replays the first serve-cold requests through the server's
// path in process — canonicalize, key, store get, the engine with
// every layer timed, summarize, encode, store put — and follows each
// with the same request untraced (the documents must be equal; the
// time difference is the tracing overhead) and, for the first ones,
// through the in-process handler of a fresh server (a miss). Timing
// these back to back keeps host noise out of the overhead and the
// residual. The probe requests are then served again (cache hits) and
// by a second server over the same store (store reads), and finally
// the real thermservd is driven over HTTP.
func traceCold(o Options, rec *recorder) error {
	lim := o.limits()
	httpN := int((coldLoRPS + coldHiRPS) * o.Seconds / 4)
	reqs, err := coldRequests(o.Seed, lim.traceCold+httpN)
	if err != nil {
		return err
	}
	replay := reqs[:lim.traceCold]
	probe := replay[:min(lim.handlerProbe, len(replay))]
	dir, err := scratchDir(o, "trace-cold")
	if err != nil {
		return err
	}
	st, err := openStore(dir)
	if err != nil {
		return err
	}
	hdir, err := scratchDir(o, "trace-cold-handler")
	if err != nil {
		return err
	}
	hst, err := openStore(hdir)
	if err != nil {
		return err
	}
	defer hst.Close()
	srv := service.New(service.Config{Store: hst})
	defer srv.Close()

	tr := newTracer()
	a := &acc{}
	sc := &scope{tr: tr, a: a}
	var canonD, getD, encD, putD, tracedSum, untracedSum, handlerSum, layerSum time.Duration
	var gets, puts []float64
	var miss []time.Duration
	var bodyBytes int
	var simS float64
	bodies := make([][]byte, len(probe))
	for i, q := range replay {
		root := tr.id()
		sc.trace = root
		before := *a
		t0 := time.Now()
		var canon service.Request
		var rc experiment.RunConfig
		var key string
		var cerr error
		cd := timed(tr, root, root, "service.canonicalize", func() {
			canon, rc, cerr = service.Canonicalize(q.canon)
			key = canon.Key()
		})
		var found bool
		var gerr error
		gd := timed(tr, root, root, "store.get", func() { _, found, gerr = st.Get(key) })
		err := errors.Join(cerr, gerr)
		if err == nil && found {
			err = errors.New("fresh key already in the store")
		}
		var body []byte
		var ed, pd time.Duration
		if err == nil {
			var res sim.Result
			res, err = tracedRun(sc, rc, root)
			if err == nil {
				ed = timed(tr, root, root, "service.encode", func() { body, err = encodeRun(canon, res) })
			}
			if err == nil {
				pd = timed(tr, root, root, "store.put", func() { err = st.Put(key, body) })
			}
		}
		t1 := time.Now()
		tr.add(root, root, 0, "request", t0, t1)
		tr.commit()
		a.wall += t1.Sub(t0)
		canonD, getD, encD, putD = canonD+cd, getD+gd, encD+ed, putD+pd
		gets = append(gets, float64(gd)/1e3)
		puts = append(puts, float64(pd)/1e3)
		bodyBytes += len(body)
		tracedSum += (a.inst - before.inst) + (a.period - before.period) + (a.summ - before.summ)
		simS += q.rc.WarmupS + q.rc.MeasureS

		u0 := time.Now()
		res, _, uerr := experiment.Run(q.rc)
		u := time.Since(u0)
		untracedSum += u
		var want []byte
		if uerr == nil {
			want, uerr = encodeRun(q.canon, res)
		}
		if err == nil && uerr == nil && !bytes.Equal(body, want) {
			uerr = errors.New("traced document differs from the untraced one")
		}
		if err == nil {
			err = uerr
		}
		if err == nil && i < len(probe) {
			w, h0, h1 := serveHandler(srv.Handler(), q.body)
			err = checkServed(w, "miss", body)
			miss = append(miss, h1.Sub(h0))
			handlerSum += h1.Sub(h0)
			layerSum += cd + gd + ed + pd + u
			bodies[i] = body
		}
		rec.op(wrapLabel(fmt.Sprintf("traced request %d", i), err))
	}
	n := float64(len(replay))
	m := engineMetrics(a, canonD+getD+encD+putD)
	m["service.canonicalize_us"] = float64(canonD) / 1e3 / n
	m["service.encode_us"] = float64(encD) / 1e3 / n
	m["service.body_bytes"] = float64(bodyBytes) / n
	m["store.get_us"] = median(gets)
	m["store.put_us"] = median(puts)
	m["store.bytes"] = float64(st.Stats().Bytes)
	m["trace.overhead_pct"] = 100 * float64(tracedSum-untracedSum) / float64(untracedSum)
	m["sim.speed"] = simS / untracedSum.Seconds()
	for k, v := range m {
		rec.set(k, v, len(replay))
	}
	// The residual is what the handler spends on a miss beyond the
	// timed layers, with the engine counted at its untraced time so the
	// tracing overhead does not hide in it.
	rec.set("residual_pct", 100*float64(handlerSum-layerSum)/float64(handlerSum), len(miss))

	if err := st.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	st, err = openStore(dir)
	if err != nil {
		return err
	}
	rec.set("store.open_ms", float64(time.Since(t0))/1e6, 1)
	if err := st.Close(); err != nil {
		return err
	}

	hit, err := handlerPass(srv.Handler(), probe, bodies, "hit", rec)
	if err != nil {
		return err
	}
	srv2 := service.New(service.Config{Store: hst})
	defer srv2.Close()
	fromStore, err := handlerPass(srv2.Handler(), probe, bodies, "store", rec)
	if err != nil {
		return err
	}
	rec.set("service.handler_us.miss", median(durationsUs(miss)), len(miss))
	rec.set("service.handler_us.hit", median(durationsUs(hit)), len(hit))
	rec.set("service.handler_us.store", median(durationsUs(fromStore)), len(fromStore))

	client := newClient()
	defer client.CloseIdleConnections()
	sdir, err := scratchDir(o, "trace-cold-http")
	if err != nil {
		return err
	}
	s, _, err := startServd(o, client, sdir)
	if err != nil {
		return err
	}
	httpReqs := reqs[lim.traceCold:]
	t, sb := coldTarget(httpReqs, o.Seed)
	err = httpLayer(o, rec, s, client, t, coldLoRPS, coldHiRPS, median(durationsUs(miss)), func(from, to int) {
		sb.verify(httpReqs, from, to, rec)
	})
	if serr := s.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	return finishTrace(o, "serve-cold", tr, rec)
}

// checkServed checks an in-process reply: 200, the expected X-Cache
// outcome, and the expected bytes.
func checkServed(w *httptest.ResponseRecorder, outcome string, want []byte) error {
	if w.Code != http.StatusOK || w.Header().Get("X-Cache") != outcome || !bytes.Equal(w.Body.Bytes(), want) {
		return fmt.Errorf("in-process handler: status %d, X-Cache %q (want %q), body equal %v",
			w.Code, w.Header().Get("X-Cache"), outcome, bytes.Equal(w.Body.Bytes(), want))
	}
	return nil
}

// handlerPass serves every probe request through h, requiring outcome
// and the expected bytes, and returns the handler times.
func handlerPass(h http.Handler, probe []coldReq, want [][]byte, outcome string, rec *recorder) ([]time.Duration, error) {
	out := make([]time.Duration, len(probe))
	for i, q := range probe {
		w, t0, t1 := serveHandler(h, q.body)
		out[i] = t1.Sub(t0)
		err := checkServed(w, outcome, want[i])
		rec.op(err)
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
	}
	return out, nil
}

// traceHot replays serve-hot draws through the in-process handler over
// the prefilled store (512-entry cache, as thermservd defaults), timing
// the handler by outcome, and times the two layers a hot request
// touches outside the handler on the same draws: canonicalize + key,
// and the store read. Every body must equal its prefill document. The
// real thermservd is then driven over HTTP.
func traceHot(o Options, rec *recorder) error {
	lim := o.limits()
	h, err := prefillHot(o, lim.hotKeys)
	if err != nil {
		return err
	}
	dir, err := scratchDir(o, "trace-hot")
	if err != nil {
		return err
	}
	if err := copyDir(h.dir, dir); err != nil {
		return err
	}
	t0 := time.Now()
	st, err := openStore(dir)
	if err != nil {
		return err
	}
	rec.set("store.open_ms", float64(time.Since(t0))/1e6, 1)
	rec.set("store.bytes", float64(h.bytes), 1)
	srv := service.New(service.Config{Store: st})
	handler := srv.Handler()
	draws := zipfDraws(o.Seed, lim.hotKeys, lim.traceHot)
	tr := newTracer()
	byOutcome := map[string][]float64{}
	var all, gets []float64
	var canonSum, storeGets, handlerSum time.Duration
	var bodyBytes int
	for i, k := range draws {
		root := tr.id()
		r0 := time.Now()
		w, hs, he := serveHandler(handler, h.bodies[k])
		hd := he.Sub(hs)
		tr.add(root, tr.id(), root, "service.handler", hs, he)
		var key string
		var cerr error
		cd := timed(tr, root, root, "service.canonicalize", func() {
			var c service.Request
			c, _, cerr = service.Canonicalize(h.reqs[k])
			key = c.Key()
		})
		var gerr error
		gd := timed(tr, root, root, "store.get", func() { _, _, gerr = st.Get(key) })
		tr.add(root, root, 0, "request", r0, time.Now())
		tr.commit()
		outcome := w.Header().Get("X-Cache")
		byOutcome[outcome] = append(byOutcome[outcome], float64(hd)/1e3)
		all = append(all, float64(hd)/1e3)
		gets = append(gets, float64(gd)/1e3)
		canonSum += cd
		handlerSum += hd
		if outcome == "store" {
			storeGets += gd
		}
		bodyBytes += w.Body.Len()
		err := errors.Join(cerr, gerr)
		if err == nil && (w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), h.docs[k])) {
			err = fmt.Errorf("key %s: status %d or body differs from its prefill document", h.keys[k], w.Code)
		}
		rec.op(wrapLabel(fmt.Sprintf("traced draw %d", i), err))
	}
	srv.Close()
	if err := st.Close(); err != nil {
		return err
	}
	n := len(draws)
	rec.set("service.handler_us.hit", median(byOutcome["hit"]), len(byOutcome["hit"]))
	rec.set("service.handler_us.store", median(byOutcome["store"]), len(byOutcome["store"]))
	rec.set("service.handler_us.miss", median(byOutcome["miss"]), len(byOutcome["miss"]))
	rec.set("service.canonicalize_us", float64(canonSum)/1e3/float64(n), n)
	rec.set("store.get_us", median(gets), n)
	rec.set("service.body_bytes", float64(bodyBytes)/float64(n), n)
	// A hot request's timed layers are canonicalize+key on every draw
	// and the store read on the draws the cache missed; the handler's
	// remainder (decode, cache lookup, response writing) is the residual.
	rec.set("residual_pct", 100*float64(handlerSum-canonSum-storeGets)/float64(handlerSum), n)

	client := newClient()
	defer client.CloseIdleConnections()
	sdir, err := scratchDir(o, "trace-hot-http")
	if err != nil {
		return err
	}
	if err := copyDir(h.dir, sdir); err != nil {
		return err
	}
	s, _, err := startServd(o, client, sdir)
	if err != nil {
		return err
	}
	httpDraws := zipfDraws(o.Seed+1, lim.hotKeys, int((hotLoRPS+hotHiRPS)*o.Seconds/4)+1)
	err = httpLayer(o, rec, s, client, hotTarget(h, httpDraws), hotLoRPS, hotHiRPS, median(all), nil)
	if serr := s.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	return finishTrace(o, "serve-hot", tr, rec)
}
