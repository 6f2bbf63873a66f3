package stream

import (
	"strings"
	"testing"
	"testing/quick"

	"thermbal/internal/ckpt"
	"thermbal/internal/task"
)

func TestQueueBasics(t *testing.T) {
	if _, err := NewQueue("bad", 0); err == nil {
		t.Error("zero capacity accepted")
	}
	q, err := NewQueue("q", 2)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name() != "q" || q.Cap() != 2 {
		t.Error("accessors wrong")
	}
	if !q.Empty() || q.Full() {
		t.Error("fresh queue state wrong")
	}
	if q.Pop() {
		t.Error("Pop on empty succeeded")
	}
	if !q.Push() || !q.Push() {
		t.Fatal("pushes failed")
	}
	if q.Push() {
		t.Error("push to full queue succeeded")
	}
	if q.Stats().Overruns != 1 {
		t.Errorf("overruns = %d", q.Stats().Overruns)
	}
	if !q.Pop() || !q.Pop() || !q.Empty() {
		t.Errorf("two pops from a full 2-frame queue left %d frames", q.Len())
	}
}

func TestQueueStats(t *testing.T) {
	q, _ := NewQueue("q", 4)
	q.Push()
	q.Push()
	q.Pop()
	s := q.Stats()
	if s.MaxLevel != 2 || q.Len() != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.MeanLevel <= 0 {
		t.Errorf("mean level = %g", s.MeanLevel)
	}
}

// Property: a queue never exceeds capacity and never reports negative
// length under arbitrary push/pop sequences.
func TestQueueInvariantProperty(t *testing.T) {
	f := func(ops []bool) bool {
		q, _ := NewQueue("p", 5)
		for _, push := range ops {
			if push {
				q.Push()
			} else {
				q.Pop()
			}
			if q.Len() < 0 || q.Len() > q.Cap() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGraphWiringErrors(t *testing.T) {
	g := NewGraph()
	if _, err := g.AddQueue("a", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddQueue("a", 2); err == nil {
		t.Error("duplicate queue accepted")
	}
	if _, err := g.AddQueue("bad", -1); err == nil {
		t.Error("bad capacity accepted")
	}
	tk := task.MustNew("t", 0.5)
	if _, err := g.AddTask(tk, []int{0}, []int{7}); err == nil {
		t.Error("unknown queue reference accepted")
	}
	if _, err := g.AddTask(tk, nil, nil); err == nil {
		t.Error("disconnected task accepted")
	}
	if _, err := g.AddTask(tk, []int{0}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddTask(task.MustNew("t", 0.1), []int{0}, nil); err == nil {
		t.Error("duplicate task accepted")
	}
	if err := g.SetSource(9, 0.1); err == nil {
		t.Error("bad source queue accepted")
	}
	if err := g.SetSource(0, 0); err == nil {
		t.Error("bad source period accepted")
	}
	if err := g.SetSink(9, 0.1, 1); err == nil {
		t.Error("bad sink queue accepted")
	}
	if err := g.SetSink(0, 0, 1); err == nil {
		t.Error("bad sink period accepted")
	}
	if err := g.SetSink(0, 0.1, 0); err == nil {
		t.Error("bad prefill accepted")
	}
	// Queue "a" holds 2 frames: a prefill of 3 could never be reached.
	if err := g.SetSink(0, 0.1, 3); err == nil || !strings.Contains(err.Error(), "capacity 2") {
		t.Errorf("prefill above capacity: %v", err)
	}
	if err := g.SetSink(0, 0.1, 2); err != nil {
		t.Errorf("prefill at capacity refused: %v", err)
	}
}

// A restored queue count must lie in [0, capacity]: a checkpoint
// holding a negative count or one above the capacity is refused.
func TestCkptRefusesQueueCountOutOfRange(t *testing.T) {
	build := func() *Graph {
		g := NewGraph()
		in, _ := g.AddQueue("in", 2)
		out, _ := g.AddQueue("out", 2)
		if _, err := g.AddTask(task.MustNew("t", 0.5), []int{in}, []int{out}); err != nil {
			t.Fatal(err)
		}
		if err := g.SetSource(in, 0.1); err != nil {
			t.Fatal(err)
		}
		if err := g.SetSink(out, 0.1, 1); err != nil {
			t.Fatal(err)
		}
		if err := g.Finalize(); err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, tc := range []struct {
		n  int
		ok bool
	}{{-1, false}, {0, true}, {2, true}, {3, false}} {
		src := build()
		src.Queue(1).n = tc.n
		var w ckpt.Codec
		src.Ckpt(&w)
		r := ckpt.NewReader(w.Bytes())
		dst := build()
		dst.Ckpt(r)
		err := r.Done()
		if tc.ok && (err != nil || dst.Queue(1).Len() != tc.n) {
			t.Errorf("restoring count %d: len %d, %v", tc.n, dst.Queue(1).Len(), err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "capacity 2")) {
			t.Errorf("restoring count %d into a 2-frame queue: %v", tc.n, err)
		}
	}
}

func TestFinalizeValidation(t *testing.T) {
	// No tasks.
	g := NewGraph()
	if err := g.Finalize(); err == nil {
		t.Error("empty graph finalized")
	}
	// Queue with no consumer.
	g = NewGraph()
	q0, _ := g.AddQueue("in", 2)
	q1, _ := g.AddQueue("dangling", 2)
	g.AddTask(task.MustNew("t", 0.5), []int{q0}, []int{q1})
	g.SetSource(q0, 0.1)
	g.SetSink(q0, 0.1, 1) // sink on q0 leaves q1 without consumer
	if err := g.Finalize(); err == nil {
		t.Error("queue without consumer finalized")
	}
	// Missing source / sink.
	g = NewGraph()
	q0, _ = g.AddQueue("in", 2)
	g.AddTask(task.MustNew("t", 0.5), []int{q0}, nil)
	if err := g.Finalize(); err == nil {
		t.Error("missing source/sink finalized")
	}
}
