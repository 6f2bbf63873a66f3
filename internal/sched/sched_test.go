package sched

import (
	"testing"
	"testing/quick"
)

func TestNewPanicsOnZeroCores(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func TestAssignAndLookup(t *testing.T) {
	s := New(2)
	if len(s.queues) != 2 {
		t.Fatalf("cores = %d", len(s.queues))
	}
	if err := s.Assign(10, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Assign(11, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Assign(12, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Assign(10, 5); err == nil {
		t.Error("out-of-range core accepted")
	}
	if got := s.TasksOn(0); len(got) != 2 || got[0] != 10 || got[1] != 11 {
		t.Errorf("TasksOn(0) = %v", got)
	}
	if got := s.TasksOn(1); len(got) != 1 || got[0] != 12 {
		t.Errorf("TasksOn(1) = %v", got)
	}
}

func TestReassignMoves(t *testing.T) {
	s := New(2)
	s.Assign(1, 0)
	if err := s.Move(1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if len(s.queues[0]) != 0 || len(s.queues[1]) != 1 {
		t.Errorf("queues after move = %v", s.queues)
	}
	// Moving onto the task's own core is a no-op.
	if err := s.Move(1, 1, 1); err != nil || len(s.queues[1]) != 1 {
		t.Errorf("redundant move: %v, queues %v", err, s.queues)
	}
	if err := s.Move(1, 0, 1); err == nil {
		t.Error("move of a task not on its named source accepted")
	}
	if err := s.Move(1, 1, 5); err == nil {
		t.Error("out-of-range destination accepted")
	}
	if err := s.Move(1, -1, 0); err == nil {
		t.Error("out-of-range source accepted")
	}
}

// Moving a task removes it from its old run queue and leaves the other
// tasks there in order.
func TestRemove(t *testing.T) {
	s := New(2)
	s.Assign(1, 0)
	s.Assign(2, 0)
	s.Assign(3, 0)
	s.Move(2, 0, 1)
	if got := s.queues[0]; len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("old queue = %v, want [1 3]", got)
	}
	if got := s.TasksOn(1); len(got) != 1 || got[0] != 2 {
		t.Errorf("TasksOn(1) = %v", got)
	}
}

func TestPickNextRoundRobin(t *testing.T) {
	s := New(1)
	s.Assign(7, 0)
	s.Assign(8, 0)
	s.Assign(9, 0)
	all := func(int) bool { return true }
	got := []int{s.PickNext(0, all), s.PickNext(0, all), s.PickNext(0, all), s.PickNext(0, all)}
	want := []int{7, 8, 9, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RR sequence = %v, want %v", got, want)
		}
	}
}

func TestPickNextSkipsBlocked(t *testing.T) {
	s := New(1)
	s.Assign(1, 0)
	s.Assign(2, 0)
	only2 := func(ti int) bool { return ti == 2 }
	if got := s.PickNext(0, only2); got != 2 {
		t.Fatalf("PickNext = %d, want 2", got)
	}
	none := func(int) bool { return false }
	if got := s.PickNext(0, none); got != -1 {
		t.Fatalf("PickNext with none runnable = %d, want -1", got)
	}
	if got := s.PickNext(0, only2); got != 2 {
		t.Error("cursor corrupted by failed pick")
	}
}

func TestPickNextEmptyCore(t *testing.T) {
	s := New(1)
	if got := s.PickNext(0, func(int) bool { return true }); got != -1 {
		t.Errorf("PickNext on empty = %d", got)
	}
}

func TestCursorStableAcrossRemoval(t *testing.T) {
	s := New(2)
	s.Assign(1, 0)
	s.Assign(2, 0)
	s.Assign(3, 0)
	all := func(int) bool { return true }
	s.PickNext(0, all) // returns 1, cursor now at 2
	s.Move(1, 0, 1)    // moves 1 off core 0
	// Next pick must be 2 (cursor adjusted), not skip to 3.
	if got := s.PickNext(0, all); got != 2 {
		t.Errorf("after removal PickNext = %d, want 2", got)
	}
	if got := s.PickNext(0, all); got != 3 {
		t.Errorf("then = %d, want 3", got)
	}
}

func TestMappingCopy(t *testing.T) {
	s := New(2)
	s.Assign(1, 0)
	got := s.TasksOn(0)
	got[0] = 7 // mutating the copy must not affect the scheduler
	if s.queues[0][0] != 1 {
		t.Error("TasksOn returned shared state")
	}
}

// Property: under arbitrary placements and moves, every mapped task
// appears in exactly one run queue, the one it was last placed on.
func TestMappingConsistencyProperty(t *testing.T) {
	type op struct {
		Task uint8
		Core uint8
	}
	f := func(ops []op) bool {
		s := New(3)
		coreOf := map[int]int{}
		for _, o := range ops {
			ti, c := int(o.Task%12), int(o.Core%3)
			if src, ok := coreOf[ti]; ok {
				if s.Move(ti, src, c) != nil {
					return false
				}
			} else if s.Assign(ti, c) != nil {
				return false
			}
			coreOf[ti] = c
		}
		seen := map[int]int{}
		for c := 0; c < 3; c++ {
			for _, ti := range s.TasksOn(c) {
				if _, dup := seen[ti]; dup {
					return false // task in two queues
				}
				seen[ti] = c
				if coreOf[ti] != c {
					return false
				}
			}
		}
		return len(seen) == len(coreOf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: round-robin fairness — over k*n picks with all runnable,
// every task is picked exactly k times.
func TestRRFairnessProperty(t *testing.T) {
	f := func(nTasks, rounds uint8) bool {
		n := int(nTasks%6) + 1
		k := int(rounds%5) + 1
		s := New(1)
		for i := 0; i < n; i++ {
			s.Assign(i, 0)
		}
		counts := make([]int, n)
		for i := 0; i < k*n; i++ {
			ti := s.PickNext(0, func(int) bool { return true })
			if ti < 0 {
				return false
			}
			counts[ti]++
		}
		for _, c := range counts {
			if c != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOrderFromFollowsCursor(t *testing.T) {
	s := New(1)
	for _, ti := range []int{5, 7, 9} {
		if err := s.Assign(ti, 0); err != nil {
			t.Fatal(err)
		}
	}
	all := func(int) bool { return true }
	// Advance the cursor past 5: pick order becomes 7, 9, 5.
	if got := s.PickNext(0, all); got != 5 {
		t.Fatalf("first pick = %d", got)
	}
	got := s.OrderFrom(0, nil)
	want := []int{7, 9, 5}
	if len(got) != len(want) {
		t.Fatalf("OrderFrom = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OrderFrom = %v, want %v", got, want)
		}
	}
	// OrderFrom must not advance the cursor.
	if next := s.PickNext(0, all); next != 7 {
		t.Errorf("pick after OrderFrom = %d, want 7", next)
	}
}

// AdvancePast must leave the cursor exactly where a PickNext returning
// that task would have.
func TestAdvancePastMatchesPickNext(t *testing.T) {
	mk := func() *Scheduler {
		s := New(1)
		for _, ti := range []int{2, 4, 6, 8} {
			if err := s.Assign(ti, 0); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	all := func(int) bool { return true }
	for _, target := range []int{2, 4, 6, 8} {
		picked := mk()
		for picked.PickNext(0, all) != target {
		}
		jumped := mk()
		jumped.AdvancePast(0, target)
		for i := 0; i < 4; i++ {
			a, b := picked.PickNext(0, all), jumped.PickNext(0, all)
			if a != b {
				t.Fatalf("after target %d: pick %d diverged (%d vs %d)", target, i, a, b)
			}
		}
	}
}

func TestAdvancePastUnknownTaskPanics(t *testing.T) {
	s := New(1)
	if err := s.Assign(1, 0); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("AdvancePast(unmapped) did not panic")
		}
	}()
	s.AdvancePast(0, 99)
}
