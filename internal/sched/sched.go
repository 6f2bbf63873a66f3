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
	// coreOf maps a task index to its core (-1 when unmapped).
	coreOf map[int]int
}

// New creates a scheduler for n cores.
func New(n int) *Scheduler {
	if n < 1 {
		panic(fmt.Sprintf("sched: need at least one core, got %d", n))
	}
	return &Scheduler{
		queues: make([][]int, n),
		cursor: make([]int, n),
		coreOf: make(map[int]int),
	}
}

// Assign places task ti on core c, removing it from any previous core.
func (s *Scheduler) Assign(ti, c int) error {
	if c < 0 || c >= len(s.queues) {
		return fmt.Errorf("sched: core %d out of range", c)
	}
	if prev, ok := s.coreOf[ti]; ok {
		if prev == c {
			return nil
		}
		s.removeFrom(ti, prev)
	}
	s.queues[c] = append(s.queues[c], ti)
	s.coreOf[ti] = c
	return nil
}

func (s *Scheduler) removeFrom(ti, c int) {
	q := s.queues[c]
	for i, v := range q {
		if v == ti {
			s.queues[c] = append(q[:i], q[i+1:]...)
			if s.cursor[c] > i {
				s.cursor[c]--
			}
			if len(s.queues[c]) > 0 {
				s.cursor[c] %= len(s.queues[c])
			} else {
				s.cursor[c] = 0
			}
			return
		}
	}
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
// cursors. A restore derives the task→core map from the queues.
func (s *Scheduler) Ckpt(c *ckpt.Codec) {
	c.Len(len(s.queues))
	if c.Reading() {
		clear(s.coreOf)
	}
	for core, q := range s.queues {
		n := len(q)
		c.Count(&n)
		if c.Reading() {
			q = slices.Grow(q[:0], n)[:n]
			s.queues[core] = q
		}
		for i := range q {
			c.Int(&q[i])
			if c.Reading() {
				s.coreOf[q[i]] = core
			}
		}
	}
	c.Ints(s.cursor)
}
