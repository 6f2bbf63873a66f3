// Package sched implements the per-core run queues of the MPOS: each
// core runs its own scheduler instance (the paper's platform runs one
// uClinux per core), with round-robin arbitration among the streaming
// tasks mapped there.
//
// The scheduler works on task indices (into the stream graph's task
// slice) so it carries no dependency on the task or stream packages.
package sched

import (
	"fmt"
	"slices"
	"sort"

	"thermbal/internal/ckpt"
)

// Scheduler maintains per-core round-robin run queues.
type Scheduler struct {
	// queues[c] lists task indices mapped to core c in RR order.
	queues [][]int
	// cursor[c] is the RR position for core c.
	cursor []int
}

// New creates a scheduler for n cores.
func New(n int) *Scheduler {
	if n < 1 {
		panic(fmt.Sprintf("sched: need at least one core, got %d", n))
	}
	return &Scheduler{
		queues: make([][]int, n),
		cursor: make([]int, n),
	}
}

// Assign places task ti, mapped to no core yet, on core c.
func (s *Scheduler) Assign(ti, c int) error {
	if c < 0 || c >= len(s.queues) {
		return fmt.Errorf("sched: core %d out of range", c)
	}
	s.queues[c] = append(s.queues[c], ti)
	return nil
}

// Move moves task ti from core src's run queue to the end of core
// dst's. Moving a task onto its own core does nothing.
func (s *Scheduler) Move(ti, src, dst int) error {
	if min(src, dst) < 0 || max(src, dst) >= len(s.queues) {
		return fmt.Errorf("sched: move from core %d to %d out of range", src, dst)
	}
	if src == dst {
		return nil
	}
	q := s.queues[src]
	i := slices.Index(q, ti)
	if i < 0 {
		return fmt.Errorf("sched: task %d is not on core %d", ti, src)
	}
	s.queues[src] = append(q[:i], q[i+1:]...)
	if s.cursor[src] > i {
		s.cursor[src]--
	}
	if len(s.queues[src]) > 0 {
		s.cursor[src] %= len(s.queues[src])
	} else {
		s.cursor[src] = 0
	}
	s.queues[dst] = append(s.queues[dst], ti)
	return nil
}

// TasksOn returns the task indices mapped to core c, in a stable sorted
// order (for deterministic iteration by policies and reports).
func (s *Scheduler) TasksOn(c int) []int {
	out := append([]int(nil), s.queues[c]...)
	sort.Ints(out)
	return out
}

// PickNext returns the next task on core c for which runnable returns
// true, advancing the round-robin cursor past it, or -1 when no mapped
// task is runnable. The cursor advance gives each runnable task a turn
// before any task gets a second one.
func (s *Scheduler) PickNext(c int, runnable func(ti int) bool) int {
	q := s.queues[c]
	n := len(q)
	if n == 0 {
		return -1
	}
	for k := 0; k < n; k++ {
		pos := (s.cursor[c] + k) % n
		ti := q[pos]
		if runnable(ti) {
			s.cursor[c] = (pos + 1) % n
			return ti
		}
	}
	return -1
}

// OrderFrom returns core c's run queue in pick order — starting at the
// round-robin cursor and wrapping — without advancing the cursor. The
// result is appended into dst (reset to length zero), so callers can
// reuse a scratch buffer across calls. The engine's event-horizon fast
// path uses this to predict which task each upcoming tick's PickNext
// will select.
func (s *Scheduler) OrderFrom(c int, dst []int) []int {
	dst = dst[:0]
	q := s.queues[c]
	cur := s.cursor[c]
	dst = append(dst, q[cur:]...)
	return append(dst, q[:cur]...)
}

// AdvancePast moves core c's round-robin cursor just past task ti,
// exactly as PickNext does when it picks ti. The engine's fast path
// uses it to leave the cursor where a sequence of picks ending in ti
// would have, without walking the picks one by one.
func (s *Scheduler) AdvancePast(c, ti int) {
	q := s.queues[c]
	for i, v := range q {
		if v == ti {
			s.cursor[c] = (i + 1) % len(q)
			return
		}
	}
	panic(fmt.Sprintf("sched: AdvancePast(%d) — task not on core %d", ti, c))
}

// Ckpt writes or reads the scheduler's run queues and round-robin
// cursors.
func (s *Scheduler) Ckpt(c *ckpt.Codec) {
	c.Len(len(s.queues))
	for core, q := range s.queues {
		n := len(q)
		c.Count(&n)
		if c.Reading() {
			q = slices.Grow(q[:0], n)[:n]
			s.queues[core] = q
		}
		for i := range q {
			c.Int(&q[i])
		}
	}
	c.Ints(s.cursor)
}
