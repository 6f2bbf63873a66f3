package scenario

import (
	"math"
	"reflect"
	"testing"
)

// fseSum totals a spec's task loads.
func fseSum(sp Spec) float64 {
	var sum float64
	for _, ts := range sp.Graph.Tasks {
		sum += ts.FSE
	}
	return sum
}

// TestPipelineSpecShape: a depth-d pipeline is d balanced-placement
// stages, each with one input and one output, sharing the 1.4 FSE
// budget.
func TestPipelineSpecShape(t *testing.T) {
	for _, seed := range []int64{0, 8} {
		sp := pipelineSpec(8, seed)
		if len(sp.Graph.Tasks) != 8 {
			t.Fatalf("depth 8 pipeline has %d tasks", len(sp.Graph.Tasks))
		}
		for _, ts := range sp.Graph.Tasks {
			if ts.Core != nil {
				t.Errorf("task %s pre-placed on core %d", ts.Name, *ts.Core)
			}
			if len(ts.Inputs) != 1 || len(ts.Outputs) != 1 {
				t.Errorf("stage %s wiring %d-in %d-out, want 1-in 1-out", ts.Name, len(ts.Inputs), len(ts.Outputs))
			}
		}
		if sum := fseSum(sp); math.Abs(sum-1.4) > 1e-9 {
			t.Errorf("seed %d: total FSE %g, want 1.4", seed, sum)
		}
	}
}

// TestPipelineSpecSeeded: seeded load shares are a function of the
// seed alone.
func TestPipelineSpecSeeded(t *testing.T) {
	if !reflect.DeepEqual(pipelineSpec(8, 42), pipelineSpec(8, 42)) {
		t.Fatal("seed 42 not deterministic")
	}
	if reflect.DeepEqual(pipelineSpec(8, 42), pipelineSpec(8, 43)) {
		t.Fatal("seeds 42 and 43 produced identical load profiles")
	}
}

// TestFanOutSpecShape: SPLIT broadcasts to every worker, JOIN consumes
// one frame from each, the whole graph spends 1.4 FSE, and seed 0
// makes the workers symmetric.
func TestFanOutSpecShape(t *testing.T) {
	const w = 6
	sp := fanoutSpec(w, 0)
	tasks := sp.Graph.Tasks
	if len(tasks) != w+2 {
		t.Fatalf("width %d fan-out has %d tasks, want %d", w, len(tasks), w+2)
	}
	split, join := tasks[0], tasks[len(tasks)-1]
	if split.Name != "SPLIT" || len(split.Outputs) != w {
		t.Errorf("%s broadcasts to %d queues, want SPLIT to %d", split.Name, len(split.Outputs), w)
	}
	if join.Name != "JOIN" || len(join.Inputs) != w {
		t.Errorf("%s consumes %d queues, want JOIN from %d", join.Name, len(join.Inputs), w)
	}
	for _, ts := range tasks[1 : w+1] {
		if ts.FSE != tasks[1].FSE {
			t.Errorf("worker %s load %g, want the symmetric %g", ts.Name, ts.FSE, tasks[1].FSE)
		}
	}
	if sum := fseSum(sp); math.Abs(sum-1.4) > 1e-9 {
		t.Errorf("total FSE %g, want 1.4", sum)
	}
}

// TestVideoSpecStructure: the decoder's first-fit mapping is
// deliberately unbalanced but feasible — core 1 carries the pipeline
// front, core 3 idles.
func TestVideoSpecStructure(t *testing.T) {
	sp := videoSpec()
	if len(sp.Graph.Tasks) != 6 || len(sp.Graph.Queues) != 8 {
		t.Fatalf("tasks = %d, queues = %d", len(sp.Graph.Tasks), len(sp.Graph.Queues))
	}
	sum := map[int]float64{}
	for _, ts := range sp.Graph.Tasks {
		sum[*ts.Core] += ts.FSE
	}
	if sum[0] <= 0.5 || sum[0] > 1 {
		t.Errorf("core1 FSE %.2f; want unbalanced (> 0.5) yet feasible", sum[0])
	}
	if math.Abs(sum[0]+sum[1]+sum[2]-1.26) > 1e-9 {
		t.Errorf("total FSE = %g", sum[0]+sum[1]+sum[2])
	}
}

// TestSplitJoinBudgetRespected: every load is in (0, 1] and the loads
// partition the budget.
func TestSplitJoinBudgetRespected(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		sp := SplitJoin(seed, 4, 3, 1.4, 3)
		for _, ts := range sp.Graph.Tasks {
			if ts.FSE <= 0 || ts.FSE > 1 {
				t.Errorf("seed %d: task %s FSE %g out of range", seed, ts.Name, ts.FSE)
			}
		}
		if sum := fseSum(sp); math.Abs(sum-1.4) > 1e-9 {
			t.Errorf("seed %d: total FSE %g, want 1.4", seed, sum)
		}
	}
}

// TestSplitJoinStageStructure: single-task first and last stages, and
// each stage's first task joins every output of the previous stage and
// broadcasts to its own branches after its own output.
func TestSplitJoinStageStructure(t *testing.T) {
	sp := SplitJoin(7, 5, 3, 1.4, 3)
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	tasks := sp.Graph.Tasks
	if tasks[0].Name != "S1T1" || tasks[1].Name != "S2T1" || tasks[len(tasks)-1].Name != "S5T1" {
		t.Fatalf("stage heads: first %s, second %s, last %s", tasks[0].Name, tasks[1].Name, tasks[len(tasks)-1].Name)
	}
	prevOuts := []string{"gq:in"}
	for i := 0; i < len(tasks); {
		head := tasks[i]
		if head.Core != nil {
			t.Errorf("task %s pre-placed", head.Name)
		}
		if !reflect.DeepEqual(head.Inputs, prevOuts) {
			t.Errorf("%s joins %v, want %v", head.Name, head.Inputs, prevOuts)
		}
		width := len(head.Outputs)
		prevOuts = []string{head.Outputs[0]}
		for br := 1; br < width; br++ {
			b := tasks[i+br]
			if !reflect.DeepEqual(b.Inputs, head.Outputs[br:br+1]) {
				t.Errorf("%s reads %v, want the branch queue %s", b.Name, b.Inputs, head.Outputs[br])
			}
			prevOuts = append(prevOuts, b.Outputs[0])
		}
		i += width
	}
	if sp.Graph.Sink.Queue != prevOuts[0] || len(prevOuts) != 1 {
		t.Errorf("sink drains %s, last stage outputs %v", sp.Graph.Sink.Queue, prevOuts)
	}
}

// TestSplitJoinRejectsTinyBudget: a budget that cannot cover the 2 %
// per-task floor leaves non-positive loads, which validation refuses.
func TestSplitJoinRejectsTinyBudget(t *testing.T) {
	if err := SplitJoin(1, 4, 3, 0.01, 3).Validate(); err == nil {
		t.Error("accepted infeasible budget")
	}
}
