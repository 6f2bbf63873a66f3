// Package stream implements the streaming application model of the
// paper: a graph of tasks connected by bounded message queues in shared
// memory (Section 5.1). A real-time source paces frames in, tasks fire
// when every input queue holds a frame and every output queue has room,
// and a real-time sink drains frames on a deadline schedule — an empty
// sink queue at a deadline is a frame miss, the paper's QoS metric.
// Frames are interchangeable: a queue is a count of buffered frames,
// not a FIFO of frame values.
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

// Queue is a bounded message queue between two pipeline stages,
// living in shared memory on the real platform. Frames carry no
// identity the model reads, so a queue is a count of buffered frames
// bounded by its capacity.
type Queue struct {
	name string
	cap  int
	n    int

	// occupancy statistics
	occSum     float64 // sum of Len() sampled at each push/pop
	occSamples int64
	maxOcc     int
	overruns   int64 // pushes rejected because the queue was full
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
func (q *Queue) Len() int { return q.n }

// Empty reports whether the queue holds no frames.
func (q *Queue) Empty() bool { return q.n == 0 }

// Full reports whether the queue is at capacity.
func (q *Queue) Full() bool { return q.n >= q.cap }

// Push adds a frame; it returns false (and counts an overrun) when the
// queue is full.
func (q *Queue) Push() bool {
	if q.Full() {
		q.overruns++
		return false
	}
	q.n++
	q.sampleOcc()
	return true
}

// Pop removes a frame; it returns false when the queue is empty.
func (q *Queue) Pop() bool {
	if q.n == 0 {
		return false
	}
	q.n--
	q.sampleOcc()
	return true
}

func (q *Queue) sampleOcc() {
	q.occSum += float64(q.n)
	q.occSamples++
	if q.n > q.maxOcc {
		q.maxOcc = q.n
	}
}

// QueueStats summarises queue behaviour over a run.
type QueueStats struct {
	Name      string
	Cap       int
	Overruns  int64
	MeanLevel float64
	MaxLevel  int
}

// Stats returns the queue statistics so far.
func (q *Queue) Stats() QueueStats {
	s := QueueStats{
		Name:     q.name,
		Cap:      q.cap,
		Overruns: q.overruns,
		MaxLevel: q.maxOcc,
	}
	if q.occSamples > 0 {
		s.MeanLevel = q.occSum / float64(q.occSamples)
	}
	return s
}
