package scenario

import (
	"fmt"

	"thermbal/internal/dvfs"
	"thermbal/internal/floorplan"
	"thermbal/internal/mpsoc"
	"thermbal/internal/policy"
	"thermbal/internal/power"
	"thermbal/internal/sim"
	"thermbal/internal/stream"
	"thermbal/internal/task"
)

// compile builds the instance a normalized spec describes: it replays
// the graph in declaration order, assembles the platform and attaches
// the modulator.
func compile(n Spec, o Options) (*Instance, error) {
	g := stream.NewGraph()
	// Queue capacity resolution: an explicit per-queue cap always
	// wins; defaultable queues take the run's override, else the
	// graph-level default.
	effCap := func(q QueueSpec) int {
		if q.Cap > 0 {
			return q.Cap
		}
		if o.QueueCap > 0 {
			return o.QueueCap
		}
		return n.Graph.QueueCap
	}
	for _, q := range n.Graph.Queues {
		if _, err := g.AddQueue(q.Name, effCap(q)); err != nil {
			return nil, err
		}
	}
	qidx := func(name string) int {
		i, ok := g.QueueIndex(name)
		if !ok {
			// Normalize guarantees every edge resolves.
			panic(fmt.Sprintf("scenario: compiled queue %q missing", name))
		}
		return i
	}
	for _, ts := range n.Graph.Tasks {
		t, err := task.New(ts.Name, ts.FSE)
		if err != nil {
			return nil, err
		}
		t.BindWork(n.Graph.FMaxHz, n.Graph.FramePeriodS)
		if ts.StateBytes > 0 {
			t.StateBytes = ts.StateBytes
		}
		if ts.CodeBytes > 0 {
			t.CodeBytes = ts.CodeBytes
		}
		if ts.Core != nil {
			t.Core = *ts.Core
		}
		ins := make([]int, len(ts.Inputs))
		for i, q := range ts.Inputs {
			ins[i] = qidx(q)
		}
		outs := make([]int, len(ts.Outputs))
		for i, q := range ts.Outputs {
			outs[i] = qidx(q)
		}
		if _, err := g.AddTask(t, ins, outs); err != nil {
			return nil, err
		}
	}
	if err := g.SetSource(qidx(n.Graph.Source.Queue), n.Graph.Source.PeriodS); err != nil {
		return nil, err
	}
	prefill := n.Graph.Sink.Prefill
	if prefill == 0 {
		// Half the sink queue's effective capacity, so the playback
		// threshold follows queue-capacity overrides.
		si := qidx(n.Graph.Sink.Queue)
		prefill = (g.Queue(si).Cap() + 1) / 2
	}
	if err := g.SetSink(qidx(n.Graph.Sink.Queue), n.Graph.Sink.PeriodS, prefill); err != nil {
		return nil, err
	}
	if err := g.Finalize(); err != nil {
		return nil, err
	}
	if n.Graph.Placement == PlacementBalanced {
		policy.BalanceMapping(g.Tasks(), n.Platform.Cores)
	}

	plat, err := compilePlatform(n.Platform, o)
	if err != nil {
		return nil, err
	}
	var mod sim.Modulator
	if n.Modulation != nil {
		mod = phaseShiftModulator(g, n.Modulation.PeriodS, n.Modulation.Hi, n.Modulation.Lo)
	}
	return &Instance{Graph: g, Platform: plat, Modulate: mod}, nil
}

// compilePlatform assembles the MPSoC a normalized platform spec
// selects.
func compilePlatform(p PlatformSpec, o Options) (*mpsoc.Platform, error) {
	cfg := mpsoc.Config{Package: o.pkg()}
	switch {
	case len(p.Tiles) > 0:
		runs := make([]floorplan.TileRun, len(p.Tiles))
		for i, t := range p.Tiles {
			runs[i] = floorplan.TileRun{Count: t.Count, Scale: t.Scale}
		}
		fp, err := floorplan.HeteroMPSoC(runs)
		if err != nil {
			return nil, err
		}
		cfg.Floorplan = fp
	case p.Cores != 3:
		// 3-core scenarios keep the nil default (the paper's Figure 5
		// die); larger platforms tile the same geometry.
		cfg.Floorplan = floorplan.StreamingMPSoC(p.Cores)
	}
	if p.AmbientC != nil {
		cfg.Package.AmbientC = *p.AmbientC
	}
	if p.Power != nil {
		pw := power.Params{
			IdleFraction: p.Power.IdleFraction,
			LeakRefW:     p.Power.LeakRefW,
			LeakBeta:     p.Power.LeakBeta,
			LeakRefTempC: p.Power.LeakRefTempC,
			VMax:         p.Power.VMaxV,
			VMin:         p.Power.VMinV,
		}
		if p.Power.Config == "conf2" {
			pw.Config = power.Conf2ARM11
		}
		cfg.PowerParams = pw
	}
	if len(p.LadderMHz) > 0 {
		levels := make([]float64, len(p.LadderMHz))
		for i, f := range p.LadderMHz {
			levels[i] = f * 1e6
		}
		ladder, err := dvfs.NewLadder(levels)
		if err != nil {
			return nil, err
		}
		cfg.Ladder = ladder
	}
	return mpsoc.New(cfg)
}

// FromSpec normalizes (and thereby validates) a spec once and wraps it
// as an uncatalogued Scenario: the normalized spec, its content hash
// and a topology label counted from it. It is how spec files, inline
// service specs and generated specs enter the same code paths as
// builtins. Labels the spec omits stay empty, so the embedded spec is
// exactly the canonical inline form; each caller that needs a fallback
// name, policy or delta applies its own.
func FromSpec(sp Spec) (Scenario, error) {
	n, err := sp.Normalize()
	if err != nil {
		return Scenario{}, err
	}
	return resolved(n, fmt.Sprintf("spec: %d tasks, %d queues, %d cores", len(n.Graph.Tasks), len(n.Graph.Queues), n.Platform.Cores))
}
