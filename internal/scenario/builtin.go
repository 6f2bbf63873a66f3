package scenario

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"thermbal/internal/sim"
	"thermbal/internal/stream"
	"thermbal/internal/task"
)

// Bursty modulation constants: every burstPeriodS the hot and cold task
// groups swap, scaling their base loads by burstHi / burstLo. The mean
// load stays near the baseline while its spatial distribution shifts —
// the phase changes the paper's static mapping cannot follow.
const (
	burstPeriodS = 4.0
	burstHi      = 1.35
	burstLo      = 0.65
)

// phaseShiftModulator alternates the loads of even- and odd-indexed
// tasks around their construction-time baselines: every periodS the
// groups swap, scaling by hi / lo. It sets the loads at the first
// update and whenever now falls in another phase than prev.
func phaseShiftModulator(g *stream.Graph, periodS, hi, lo float64) sim.Modulator {
	base := make([]float64, g.NumTasks())
	for i, t := range g.Tasks() {
		base[i] = t.FSE
	}
	return func(prev, now float64, tasks []*task.Task) bool {
		phase := int(now/periodS) % 2
		if !math.IsInf(prev, -1) && int(prev/periodS)%2 == phase {
			return false
		}
		for i, t := range tasks {
			f := lo
			if (i%2 == 0) == (phase == 0) {
				f = hi
			}
			t.FSE = min(base[i]*f, 1)
		}
		return true
	}
}

// queues declares default-capacity queues in order.
func queues(names ...string) []QueueSpec {
	out := make([]QueueSpec, len(names))
	for i, n := range names {
		out[i] = QueueSpec{Name: n}
	}
	return out
}

// placed declares a task pinned to core; ins and outs are
// space-separated queue names.
func placed(name string, fse float64, core int, ins, outs string) TaskSpec {
	return TaskSpec{Name: name, FSE: fse, Core: &core, Inputs: strings.Fields(ins), Outputs: strings.Fields(outs)}
}

// sdrSpec is the paper's Software Defined FM Radio (Figure 6):
//
//	SRC → [LPF] → [DEMOD] → { [BPF1], [BPF2], [BPF3] } → [SUM] → SINK
//
// The demodulator broadcasts each frame to the three band-pass filters
// (parallel equalizer) and SUM needs one frame from each. Loads and
// placement are Table 2's, with loads measured at 266 MHz rescaled to
// the 533 MHz maximum: BPF1 36.7 % and DEMOD 28.3 % on core 1 at
// 533 MHz; BPF2 60.9 % and SUM 6.2 % on core 2, BPF3 60.9 % and LPF
// 18.8 % on core 3, both at 266 MHz. Frames arrive every 20 ms.
func sdrSpec() Spec {
	return Spec{Graph: GraphSpec{
		Queues: queues("q:src-lpf", "q:lpf-demod", "q:demod-bpf1", "q:demod-bpf2", "q:demod-bpf3",
			"q:bpf1-sum", "q:bpf2-sum", "q:bpf3-sum", "q:sum-sink"),
		Tasks: []TaskSpec{
			placed("LPF", 0.188*266.0/533.0, 2, "q:src-lpf", "q:lpf-demod"),
			placed("DEMOD", 0.283, 0, "q:lpf-demod", "q:demod-bpf1 q:demod-bpf2 q:demod-bpf3"),
			placed("BPF1", 0.367, 0, "q:demod-bpf1", "q:bpf1-sum"),
			placed("BPF2", 0.609*266.0/533.0, 1, "q:demod-bpf2", "q:bpf2-sum"),
			placed("BPF3", 0.609*266.0/533.0, 2, "q:demod-bpf3", "q:bpf3-sum"),
			placed("SUM", 0.062*266.0/533.0, 1, "q:bpf1-sum q:bpf2-sum q:bpf3-sum", "q:sum-sink"),
		},
		Source: SourceSpec{Queue: "q:src-lpf"},
		Sink:   SinkSpec{Queue: "q:sum-sink"},
	}}
}

// videoSpec is a software video decoder at 25 frames/s, in the style of
// an MPEG-2/H.263 decoder:
//
//	SRC → [VLD] → [IQ] → { [IDCT1], [IDCT2] } → [MC] → [OUT] → SINK
//
// The inverse DCT is data-parallel across two workers and motion
// compensation joins them. The placement is first-fit in pipeline
// order, the kind written before profiling: core 1 carries FSE 0.78
// while core 3 idles at 0.12 — deliberately thermally unbalanced.
func videoSpec() Spec {
	return Spec{Graph: GraphSpec{
		FramePeriodS: 0.040,
		Queues: queues("v:src-vld", "v:vld-iq", "v:iq-idct1", "v:iq-idct2",
			"v:idct1-mc", "v:idct2-mc", "v:mc-out", "v:out-sink"),
		Tasks: []TaskSpec{
			placed("VLD", 0.22, 0, "v:src-vld", "v:vld-iq"),
			placed("IQ", 0.10, 1, "v:vld-iq", "v:iq-idct1 v:iq-idct2"),
			placed("IDCT1", 0.26, 0, "v:iq-idct1", "v:idct1-mc"),
			placed("IDCT2", 0.26, 1, "v:iq-idct2", "v:idct2-mc"),
			placed("MC", 0.30, 0, "v:idct1-mc v:idct2-mc", "v:mc-out"),
			placed("OUT", 0.12, 2, "v:mc-out", "v:out-sink"),
		},
		Source: SourceSpec{Queue: "v:src-vld"},
		Sink:   SinkSpec{Queue: "v:out-sink"},
	}}
}

// pipelineSpec is SRC → P1 → … → Pdepth → SINK with a 1.4 FSE budget
// (the SDR total) split by seeded shares. Every stage is on the
// critical path, so one long migration stalls the whole chain.
func pipelineSpec(depth int, seed int64) Spec {
	g := GraphSpec{Placement: PlacementBalanced, Queues: queues("p:in")}
	prev := "p:in"
	for i, fse := range loadShares(depth, 1.4, seed) {
		out := fmt.Sprintf("p:%d-out", i+1)
		g.Queues = append(g.Queues, QueueSpec{Name: out})
		g.Tasks = append(g.Tasks, TaskSpec{Name: fmt.Sprintf("P%d", i+1), FSE: fse, Inputs: []string{prev}, Outputs: []string{out}})
		prev = out
	}
	g.Source = SourceSpec{Queue: "p:in"}
	g.Sink = SinkSpec{Queue: prev}
	return Spec{Graph: g}
}

// fanoutSpec is SRC → SPLIT → {W1 … Wwidth} → JOIN → SINK: the split
// broadcasts each frame to every worker and the join needs one from
// each. Split and join take 10 % of a 1.4 FSE budget each; the workers
// share the rest, equally when seed is 0.
func fanoutSpec(width int, seed int64) Spec {
	// Runtime products, not constant-folded ones: 0.10 * 1.4 folded
	// exactly rounds one ulp away from the float64 product.
	budget := 1.4
	edge := 0.10 * budget
	g := GraphSpec{Placement: PlacementBalanced, Queues: queues("f:in")}
	split := TaskSpec{Name: "SPLIT", FSE: edge, Inputs: []string{"f:in"}}
	join := TaskSpec{Name: "JOIN", FSE: edge, Outputs: []string{"f:out"}}
	var workers []TaskSpec
	for i, fse := range loadShares(width, budget-2*edge, seed) {
		in, out := fmt.Sprintf("f:split-w%d", i+1), fmt.Sprintf("f:w%d-join", i+1)
		g.Queues = append(g.Queues, QueueSpec{Name: in}, QueueSpec{Name: out})
		split.Outputs = append(split.Outputs, in)
		join.Inputs = append(join.Inputs, out)
		workers = append(workers, TaskSpec{Name: fmt.Sprintf("W%d", i+1), FSE: fse, Inputs: []string{in}, Outputs: []string{out}})
	}
	g.Queues = append(g.Queues, QueueSpec{Name: "f:out"})
	g.Tasks = append(append([]TaskSpec{split}, workers...), join)
	g.Source = SourceSpec{Queue: "f:in"}
	g.Sink = SinkSpec{Queue: "f:out"}
	return Spec{Graph: g}
}

// SplitJoin is the seeded split/join family on a cores-core tiled die
// with balanced placement: stages stages of seeded width (1 to
// maxWidth; the first and last have width 1), each stage's first task
// joining every output of the previous stage and broadcasting to its
// own branches. The loads partition totalFSE in seeded proportions with
// a 2 % floor per task. The spec is a pure function of its arguments.
func SplitJoin(seed int64, stages, maxWidth int, totalFSE float64, cores int) Spec {
	rng := rand.New(rand.NewSource(seed))
	widths := make([]int, stages)
	n := 0
	for i := range widths {
		widths[i] = 1
		if i > 0 && i < stages-1 {
			widths[i] += rng.Intn(maxWidth)
		}
		n += widths[i]
	}
	loads := shares(rng, n, totalFSE)

	g := GraphSpec{Placement: PlacementBalanced, Queues: queues("gq:in")}
	prev := []string{"gq:in"}
	for s, width := range widths {
		first := len(g.Tasks)
		var outs []string
		for br := 0; br < width; br++ {
			ins := prev
			if br > 0 {
				// The branch queue is declared here and fed by the
				// stage's first task, after that task's own output.
				q := fmt.Sprintf("gq:s%d-br%d", s+1, br+1)
				g.Queues = append(g.Queues, QueueSpec{Name: q})
				g.Tasks[first].Outputs = append(g.Tasks[first].Outputs, q)
				ins = []string{q}
			}
			out := fmt.Sprintf("gq:s%dt%d-out", s+1, br+1)
			g.Queues = append(g.Queues, QueueSpec{Name: out})
			g.Tasks = append(g.Tasks, TaskSpec{
				Name: fmt.Sprintf("S%dT%d", s+1, br+1), FSE: loads[len(g.Tasks)],
				Inputs: ins, Outputs: []string{out},
			})
			outs = append(outs, out)
		}
		prev = outs
	}
	g.Source = SourceSpec{Queue: "gq:in"}
	g.Sink = SinkSpec{Queue: prev[0]}
	return Spec{Graph: g, Platform: PlatformSpec{Cores: cores}}
}

// loadShares splits budget across n tasks: equal shares when seed is 0,
// otherwise seeded proportions.
func loadShares(n int, budget float64, seed int64) []float64 {
	if seed == 0 {
		out := make([]float64, n)
		for i := range out {
			out[i] = min(budget/float64(n), 1)
		}
		return out
	}
	return shares(rand.New(rand.NewSource(seed)), n, budget)
}

// shares draws n random proportions of budget from rng, each task
// getting at least 2 % and at most one core at fmax.
func shares(rng *rand.Rand, n int, budget float64) []float64 {
	weights := make([]float64, n)
	var wsum float64
	for i := range weights {
		weights[i] = 0.05 + rng.Float64()
		wsum += weights[i]
	}
	const floor = 0.02
	avail := budget - floor*float64(n)
	out := make([]float64, n)
	for i, w := range weights {
		out[i] = min(floor+avail*w/wsum, 1)
	}
	return out
}

// Generate returns the deterministic scenario spec for a seed: a
// split/join workload with seeded widths and loads on a tiled die sized
// to the seed's draw. The spec — and therefore its content address — is
// a pure function of the seed, so generated workloads cache, persist
// and coalesce like built-ins.
func Generate(seed int64) Spec {
	rng := rand.New(rand.NewSource(seed))
	cores := 4 << rng.Intn(3) // 4, 8 or 16
	stages := cores/2 + 2 + rng.Intn(3)
	maxWidth := 2 + rng.Intn(2)
	totalFSE := (0.30 + 0.25*rng.Float64()) * float64(cores)
	sp := SplitJoin(seed, stages, maxWidth, totalFSE, cores)
	sp.Name = fmt.Sprintf("gen-%d", seed)
	sp.Description = fmt.Sprintf("seeded split/join workload (seed %d) on a %d-core tiled die", seed, cores)
	sp.WarmupS, sp.MeasureS = 5, 10
	sp.DefaultPolicy, sp.DefaultDelta = "thermal-balance", 2
	n, err := sp.Normalize()
	if err != nil {
		// The parameter ranges above always leave every load positive.
		panic(fmt.Sprintf("scenario: Generate(%d): %v", seed, err))
	}
	return n
}

// builtin labels a catalogue entry: its name and description, and the
// balancing policy by default, at ±3 °C unless the spec says otherwise.
func builtin(name, desc, topology string, sp Spec) Scenario {
	sp.Name, sp.Description = name, desc
	sp.DefaultPolicy = "thermal-balance"
	sp.DefaultDelta = cmp.Or(sp.DefaultDelta, 3)
	return Scenario{Spec: sp, Topology: topology}
}

// builtins returns the catalogue's entries, not yet normalized or
// sorted (builtinCatalogue does both).
func builtins() []Scenario {
	bursty := sdrSpec()
	bursty.Modulation = &ModulationSpec{Kind: ModPhaseShift}
	bs := []Scenario{
		// The two paper workloads, with their hand mappings.
		builtin(DefaultName, "the paper's Software Defined FM Radio (Figure 6, Table 2 mapping)",
			"pipeline with 3-way equalizer split", sdrSpec()),
		builtin("video-decoder", "software video decoder pipeline, deliberately unbalanced first-fit mapping",
			"pipeline with 2-way IDCT split", videoSpec()),
		// The hot spot moves between task groups every few seconds, so
		// a static mapping is wrong half the time by construction.
		builtin("bursty-sdr", "SDR graph with phase-shifting load (hot/cold task groups swap every 4 s)",
			"SDR pipeline, FSE modulated over time", bursty),
	}
	// Deep pipelines: every stage sits on the critical path, so freeze
	// filtering decides whether migrations are affordable at all.
	for _, depth := range []int{4, 8, 16} {
		bs = append(bs, builtin(fmt.Sprintf("pipeline-d%d", depth),
			fmt.Sprintf("deep linear pipeline, %d seeded-load stages on the critical path", depth),
			fmt.Sprintf("pipeline depth %d", depth), pipelineSpec(depth, int64(depth))))
	}
	// Fan-out/fan-in: many same-shape workers make the pairing space
	// large; w4 is perfectly symmetric, w8 has a seeded skew.
	bs = append(bs,
		builtin("fanout-w4", "symmetric 4-way fan-out/fan-in, degenerate pairing space",
			"split/join width 4", fanoutSpec(4, 0)),
		builtin("fanout-w8", "skewed 8-way fan-out/fan-in with seeded worker loads",
			"split/join width 8", fanoutSpec(8, 88)))
	// Many-core scaling: ~0.45 FSE budget per core on a tiled die, with
	// shorter default windows so the full matrix stays tractable.
	for _, n := range []int{8, 16, 32, 64, 128, 256} {
		sp := SplitJoin(int64(n), n/2+4, 3, 0.45*float64(n), n)
		sp.WarmupS, sp.MeasureS, sp.DefaultDelta = 5, 10, 2
		bs = append(bs, builtin(fmt.Sprintf("manycore-%d", n),
			fmt.Sprintf("seeded split/join workload on a %d-core tiled die", n),
			fmt.Sprintf("generated split/join, %d cores", n), sp))
	}
	return bs
}
