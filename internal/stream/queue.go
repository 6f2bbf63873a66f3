// Package stream implements the streaming application model of the
// paper: a graph of tasks connected by bounded message queues in shared
// memory (Section 5.1). A real-time source paces frames in, tasks fire
// when every input queue holds a frame and every output queue has room,
// and a real-time sink drains frames on a deadline schedule — an empty
// sink queue at a deadline is a frame miss, the paper's QoS metric.
// Concrete graphs are declared as scenario specs and compiled onto this
// model by package scenario.
package stream

import (
	"fmt"
)

// DefaultFramePeriod is the SDR frame period: 20 ms (50 audio frames
// per second), the default of every spec that sets none.
const DefaultFramePeriod = 0.020

// DefaultQueueCap is the default inter-task queue capacity in frames.
// The paper reports 11 frames as the minimum size that sustains
// migration without QoS impact (Section 5.2).
const DefaultQueueCap = 11

// Frame is one unit of streaming data (e.g. one audio frame).
type Frame struct {
	// ID is the sequence number assigned by the source.
	ID int64
	// Created is the simulation time the source emitted the frame.
	Created float64
}

// Queue is a bounded FIFO message queue between two pipeline stages,
// living in shared memory on the real platform.
type Queue struct {
	name string
	cap  int
	buf  []Frame

	// occupancy statistics
	pushes, pops int64
	occSum       float64 // sum of Len() sampled at each push/pop
	occSamples   int64
	maxOcc       int
	overruns     int64 // pushes rejected because the queue was full
}

// NewQueue creates a queue with the given capacity (must be positive).
func NewQueue(name string, capacity int) (*Queue, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("stream: queue %q capacity %d must be positive", name, capacity)
	}
	return &Queue{name: name, cap: capacity}, nil
}

// Name returns the queue name.
func (q *Queue) Name() string { return q.name }

// Cap returns the capacity.
func (q *Queue) Cap() int { return q.cap }

// Len returns the number of buffered frames.
func (q *Queue) Len() int { return len(q.buf) }

// Empty reports whether the queue holds no frames.
func (q *Queue) Empty() bool { return len(q.buf) == 0 }

// Full reports whether the queue is at capacity.
func (q *Queue) Full() bool { return len(q.buf) >= q.cap }

// Push appends a frame; it returns false (and counts an overrun) when
// the queue is full.
func (q *Queue) Push(f Frame) bool {
	if q.Full() {
		q.overruns++
		return false
	}
	q.buf = append(q.buf, f)
	q.pushes++
	q.sampleOcc()
	return true
}

// Pop removes and returns the oldest frame; ok is false when empty.
func (q *Queue) Pop() (f Frame, ok bool) {
	if len(q.buf) == 0 {
		return Frame{}, false
	}
	f = q.buf[0]
	// Shift rather than reslice to keep the backing array bounded.
	copy(q.buf, q.buf[1:])
	q.buf = q.buf[:len(q.buf)-1]
	q.pops++
	q.sampleOcc()
	return f, true
}

// Peek returns the oldest frame without removing it.
func (q *Queue) Peek() (f Frame, ok bool) {
	if len(q.buf) == 0 {
		return Frame{}, false
	}
	return q.buf[0], true
}

func (q *Queue) sampleOcc() {
	q.occSum += float64(len(q.buf))
	q.occSamples++
	if len(q.buf) > q.maxOcc {
		q.maxOcc = len(q.buf)
	}
}

// Stats summarises queue behaviour over a run.
type QueueStats struct {
	Name      string
	Cap       int
	Pushes    int64
	Pops      int64
	Overruns  int64
	MeanLevel float64
	MaxLevel  int
}

// Stats returns the queue statistics so far.
func (q *Queue) Stats() QueueStats {
	s := QueueStats{
		Name:     q.name,
		Cap:      q.cap,
		Pushes:   q.pushes,
		Pops:     q.pops,
		Overruns: q.overruns,
		MaxLevel: q.maxOcc,
	}
	if q.occSamples > 0 {
		s.MeanLevel = q.occSum / float64(q.occSamples)
	}
	return s
}

// Reset clears contents and statistics.
func (q *Queue) Reset() {
	q.buf = q.buf[:0]
	q.pushes, q.pops, q.overruns = 0, 0, 0
	q.occSum, q.occSamples = 0, 0
	q.maxOcc = 0
}
