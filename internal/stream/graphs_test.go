package stream_test

import (
	"math"
	"testing"

	"thermbal/internal/scenario"
	"thermbal/internal/stream"
	"thermbal/internal/task"
)

// The flow tests run on graphs compiled from the scenario registry and
// scenario.Generate, so they exercise the stream model exactly as the
// engine receives it.

// instance compiles a registered scenario's graph.
func instance(t *testing.T, name string) *stream.Graph {
	t.Helper()
	sc, err := scenario.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sc.Instantiate(scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return inst.Graph
}

// TestSDRBuilds checks the compiled sdr-radio graph against the paper:
// six tasks on nine queues, every task bound to work, and the Table 2
// per-core loads that map to 533/266/266 MHz.
func TestSDRBuilds(t *testing.T) {
	g := instance(t, "sdr-radio")
	if g.NumTasks() != 6 {
		t.Fatalf("SDR tasks = %d, want 6", g.NumTasks())
	}
	if g.NumQueues() != 9 {
		t.Fatalf("SDR queues = %d, want 9", g.NumQueues())
	}
	table2 := map[string]int{"BPF1": 0, "DEMOD": 0, "BPF2": 1, "SUM": 1, "BPF3": 2, "LPF": 2}
	sum := map[int]float64{}
	for _, tk := range g.Tasks() {
		if tk.Core != table2[tk.Name] {
			t.Errorf("%s on core %d, want %d", tk.Name, tk.Core, table2[tk.Name])
		}
		if tk.CyclesPerFrame <= 0 {
			t.Errorf("%s has no work bound", tk.Name)
		}
		sum[tk.Core] += tk.FSE
	}
	if math.Abs(sum[0]-0.65) > 1e-9 {
		t.Errorf("core1 FSE = %g, want 0.65", sum[0])
	}
	// Cores 2 and 3 carry 60.9 % + 6.2 % and 60.9 % + 18.8 % of
	// 266 MHz: under 0.5 FSE, so 266 MHz fits.
	for c, want := range map[int]float64{1: 0.671 * 266 / 533, 2: 0.797 * 266 / 533} {
		if math.Abs(sum[c]-want) > 1e-9 || sum[c] > 0.5 {
			t.Errorf("core%d FSE = %g, want %g", c+1, sum[c], want)
		}
	}
}

// Drive the SDR graph with an ideal processor (unlimited cycles) and
// check end-to-end frame flow and zero misses.
func idealRun(t *testing.T, g *stream.Graph, duration float64) {
	t.Helper()
	const tick = 0.001
	for now := 0.0; now < duration; now += tick {
		g.AdvanceSource(now)
		// Run every task to completion instantly (ideal CPU).
		for pass := 0; pass < 8; pass++ {
			fired := false
			for i := 0; i < g.NumTasks(); i++ {
				if g.CanFire(i) {
					if err := g.BeginFrame(i); err != nil {
						t.Fatal(err)
					}
					g.Task(i).Execute(math.Inf(1))
					g.FinishFrame(i)
					fired = true
				}
			}
			if !fired {
				break
			}
		}
		g.AdvanceSink(now)
	}
}

func TestSDREndToEndIdealProcessor(t *testing.T) {
	g := instance(t, "sdr-radio")
	idealRun(t, g, 3.0)
	src := g.SourceStats()
	snk := g.SinkStats()
	if src.Emitted < 140 {
		t.Errorf("source emitted %d frames in 3 s, want ≈150", src.Emitted)
	}
	if src.Dropped != 0 {
		t.Errorf("source dropped %d frames on ideal CPU", src.Dropped)
	}
	if snk.Misses != 0 {
		t.Errorf("%d misses on ideal CPU", snk.Misses)
	}
	if snk.Consumed < 100 {
		t.Errorf("sink consumed only %d frames", snk.Consumed)
	}
	// Every intermediate queue must have seen traffic.
	for qi := 0; qi < g.NumQueues(); qi++ {
		if g.Queue(qi).Stats().MaxLevel == 0 {
			t.Errorf("queue %s never received a frame", g.Queue(qi).Name())
		}
	}
}

func TestSinkMissesWhenPipelineFrozen(t *testing.T) {
	g := instance(t, "sdr-radio")
	idealRun(t, g, 1.0)
	pre := g.SinkStats().Misses
	if pre != 0 {
		t.Fatalf("unexpected misses in warmup: %d", pre)
	}
	// Freeze the whole pipeline (no task work) but keep the sink draining.
	start := 1.0
	for now := start; now < start+1.0; now += 0.001 {
		g.AdvanceSource(now)
		g.AdvanceSink(now)
	}
	misses := g.SinkStats().Misses
	if misses < 30 {
		t.Errorf("frozen pipeline produced only %d misses in 1 s, want ≈ 45+", misses)
	}
	// The head queue must have overrun (source kept pushing).
	headStats := g.Queue(0).Stats()
	if headStats.Overruns == 0 {
		t.Error("head queue never overran while pipeline frozen")
	}
}

func TestBeginFrameRequiresFirable(t *testing.T) {
	g := instance(t, "sdr-radio")
	lpf, _ := g.TaskIndex("LPF")
	if g.CanFire(lpf) {
		t.Fatal("LPF firable with empty input")
	}
	if err := g.BeginFrame(lpf); err == nil {
		t.Error("BeginFrame on unfirable task succeeded")
	}
	// Frozen task cannot fire even with data.
	g.AdvanceSource(0)
	g.Task(lpf).State = task.Frozen
	if g.CanFire(lpf) {
		t.Error("frozen task firable")
	}
	g.Task(lpf).State = task.Ready
	if !g.CanFire(lpf) {
		t.Error("LPF not firable with input frame available")
	}
}

func TestSumRequiresAllThreeBPFs(t *testing.T) {
	g := instance(t, "sdr-radio")
	sum, _ := g.TaskIndex("SUM")
	// Push frames into only two of the three BPF output queues.
	q1, _ := g.QueueIndex("q:bpf1-sum")
	q2, _ := g.QueueIndex("q:bpf2-sum")
	g.Queue(q1).Push()
	g.Queue(q2).Push()
	if g.CanFire(sum) {
		t.Error("SUM fired with only 2 of 3 inputs")
	}
	q3, _ := g.QueueIndex("q:bpf3-sum")
	g.Queue(q3).Push()
	if !g.CanFire(sum) {
		t.Error("SUM not firable with all inputs present")
	}
	// Fire and check all three inputs consumed.
	if err := g.BeginFrame(sum); err != nil {
		t.Fatal(err)
	}
	if g.Queue(q1).Len() != 0 || g.Queue(q2).Len() != 0 || g.Queue(q3).Len() != 0 {
		t.Error("SUM did not consume one frame from each input")
	}
}

func TestInputsOutputsAccessors(t *testing.T) {
	g := instance(t, "sdr-radio")
	demod, _ := g.TaskIndex("DEMOD")
	if got := len(g.Outputs(demod)); got != 3 {
		t.Errorf("DEMOD outputs = %d, want 3 (broadcast)", got)
	}
	if got := len(g.Inputs(demod)); got != 1 {
		t.Errorf("DEMOD inputs = %d, want 1", got)
	}
	sum, _ := g.TaskIndex("SUM")
	if got := len(g.Inputs(sum)); got != 3 {
		t.Errorf("SUM inputs = %d, want 3 (join)", got)
	}
}

// The source/sink schedules are derived from counts, not accumulated, so
// after millions of periods the next event time is still exactly
// base + n*period (the accumulating form had drifted by whole frames).
func TestScheduleDriftFree(t *testing.T) {
	g := instance(t, "sdr-radio")
	const period = stream.DefaultFramePeriod
	g.AdvanceSource(0) // starts the schedule, emits frame 0
	const n = 2_000_000
	// Jump far ahead: every due emission fires (the head queue overruns,
	// which only increments Dropped).
	g.AdvanceSource(float64(n) * period)
	src := g.SourceStats()
	attempts := src.Emitted + src.Dropped
	if attempts != n+1 {
		t.Fatalf("attempts = %d, want %d", attempts, n+1)
	}
	if got, want := g.NextSourceEmissionAt(), float64(n+1)*period; got != want {
		t.Errorf("NextSourceEmissionAt = %x, want exactly %x", got, want)
	}
}

func TestNextEventQueries(t *testing.T) {
	g := instance(t, "sdr-radio")
	if !math.IsInf(g.NextSourceEmissionAt(), -1) {
		t.Error("unstarted source not imminent")
	}
	if !math.IsInf(g.NextSinkDeadlineAt(), 1) {
		t.Error("prefilling sink reported a deadline")
	}
	g.AdvanceSource(0)
	if got, want := g.NextSourceEmissionAt(), stream.DefaultFramePeriod; got != want {
		t.Errorf("next emission = %v, want %v", got, want)
	}
	// Fill the sink queue to the prefill threshold: playback is imminent.
	qi, ok := g.QueueIndex("q:sum-sink")
	if !ok {
		t.Fatal("sink queue missing")
	}
	for g.Queue(qi).Len() < stream.DefaultQueueCap/2+1 {
		g.Queue(qi).Push()
	}
	if !math.IsInf(g.NextSinkDeadlineAt(), -1) {
		t.Error("prefilled sink not imminent")
	}
	g.AdvanceSink(1.0) // playback starts at 1.0
	if got, want := g.NextSinkDeadlineAt(), 1.0+stream.DefaultFramePeriod; got != want {
		t.Errorf("next deadline = %v, want %v", got, want)
	}
	// Consume one deadline; the next derives from the fired count.
	g.AdvanceSink(1.0 + stream.DefaultFramePeriod)
	if got, want := g.NextSinkDeadlineAt(), 1.0+2*stream.DefaultFramePeriod; got != want {
		t.Errorf("deadline after one fire = %v, want %v", got, want)
	}
}

func TestVideoFlowsEndToEnd(t *testing.T) {
	g := instance(t, "video-decoder")
	idealRun(t, g, 3.0)
	if g.SinkStats().Misses != 0 {
		t.Errorf("%d misses on ideal CPU", g.SinkStats().Misses)
	}
	// 25 fps: ~75 frames in 3 s.
	if got := g.SinkStats().Consumed; got < 50 {
		t.Errorf("consumed %d frames", got)
	}
	mc, _ := g.TaskIndex("MC")
	if g.Task(mc).FramesCompleted == 0 {
		t.Error("MC never fired")
	}
}

func TestVideoSplitJoinSemantics(t *testing.T) {
	g := instance(t, "video-decoder")
	mc, _ := g.TaskIndex("MC")
	if got := len(g.Inputs(mc)); got != 2 {
		t.Errorf("MC inputs = %d, want 2 (join)", got)
	}
	iq, _ := g.TaskIndex("IQ")
	if got := len(g.Outputs(iq)); got != 2 {
		t.Errorf("IQ outputs = %d, want 2 (broadcast)", got)
	}
}

// generated compiles the workload scenario.Generate derives from seed.
func generated(t *testing.T, seed int64) *scenario.Instance {
	t.Helper()
	sc, err := scenario.FromSpec(scenario.Generate(seed))
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	inst, err := sc.Instantiate(scenario.Options{})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return inst
}

// Graphs compiled from the same generator seed must be identical task for
// task; a different seed must give a different workload.
func TestGenerateDeterministic(t *testing.T) {
	gen := func(seed int64) *stream.Graph {
		return generated(t, seed).Graph
	}
	a, b := gen(42), gen(42)
	if a.NumTasks() != b.NumTasks() {
		t.Fatalf("task counts differ: %d vs %d", a.NumTasks(), b.NumTasks())
	}
	for i := 0; i < a.NumTasks(); i++ {
		if a.Task(i).Name != b.Task(i).Name || a.Task(i).FSE != b.Task(i).FSE {
			t.Errorf("task %d differs across same-seed generations", i)
		}
	}
	c := gen(43)
	same := c.NumTasks() == a.NumTasks()
	if same {
		for i := 0; i < a.NumTasks(); i++ {
			if a.Task(i).FSE != c.Task(i).FSE {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

// Generated graphs must stream end to end on an ideal processor with no
// misses and no drops, for many seeds.
func TestGeneratedGraphsFlow(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		g := generated(t, seed).Graph
		idealRun(t, g, 2.0)
		if got := g.SinkStats().Misses; got != 0 {
			t.Errorf("seed %d: %d misses on ideal CPU", seed, got)
		}
		if got := g.SourceStats().Dropped; got != 0 {
			t.Errorf("seed %d: %d source drops on ideal CPU", seed, got)
		}
		if g.SinkStats().Consumed < 50 {
			t.Errorf("seed %d: only %d frames consumed", seed, g.SinkStats().Consumed)
		}
	}
}
