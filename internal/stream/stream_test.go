package stream

import (
	"testing"
	"testing/quick"

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
	if _, ok := q.Pop(); ok {
		t.Error("Pop on empty succeeded")
	}
	if !q.Push(Frame{ID: 1}) || !q.Push(Frame{ID: 2}) {
		t.Fatal("pushes failed")
	}
	if q.Push(Frame{ID: 3}) {
		t.Error("push to full queue succeeded")
	}
	if q.Stats().Overruns != 1 {
		t.Errorf("overruns = %d", q.Stats().Overruns)
	}
	f, _ := q.Pop()
	g, _ := q.Pop()
	if f.ID != 1 || g.ID != 2 {
		t.Errorf("FIFO order violated: %d then %d", f.ID, g.ID)
	}
}

func TestQueueStats(t *testing.T) {
	q, _ := NewQueue("q", 4)
	q.Push(Frame{ID: 0})
	q.Push(Frame{ID: 1})
	q.Pop()
	s := q.Stats()
	if s.Pushes != 2 || s.Pops != 1 || s.MaxLevel != 2 {
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
		var id int64
		for _, push := range ops {
			if push {
				q.Push(Frame{ID: id})
				id++
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

// Property: FIFO — IDs pop in push order.
func TestQueueFIFOProperty(t *testing.T) {
	f := func(n uint8) bool {
		q, _ := NewQueue("p", 300)
		for i := int64(0); i <= int64(n); i++ {
			q.Push(Frame{ID: i})
		}
		for i := int64(0); i <= int64(n); i++ {
			f, ok := q.Pop()
			if !ok || f.ID != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
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
