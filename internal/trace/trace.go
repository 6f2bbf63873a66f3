// Package trace records simulation timelines (temperatures, frequencies,
// events) and renders them as CSV — the reproduction's equivalent of the
// paper's UART statistics extraction (Section 4).
package trace

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync/atomic"
)

// Process-wide drop totals across every recorder, alive or discarded,
// for /metrics. Recorders are per-engine and usually short-lived, so
// they keep no drop counts of their own.
var (
	totalDroppedSamples atomic.Int64
	totalDroppedEvents  atomic.Int64
)

// TotalDroppedSamples returns the process-wide count of samples
// discarded at recorder caps.
func TotalDroppedSamples() int64 { return totalDroppedSamples.Load() }

// TotalDroppedEvents returns the process-wide count of events
// discarded at recorder caps.
func TotalDroppedEvents() int64 { return totalDroppedEvents.Load() }

// Sample is one row of the periodic timeline.
type Sample struct {
	Time  float64
	Temp  []float64 // per-core °C
	Freq  []float64 // per-core Hz
	Power []float64 // per-core W (optional; may be nil)
}

// Event is a discrete occurrence (migration, stop, start, miss burst).
type Event struct {
	Time float64
	Kind string
	Text string
}

// Recorder buffers samples and events. The zero value records nothing;
// construct with New. MaxSamples and MaxEvents caps guard memory on
// long runs — a thrashing policy can emit events far faster than the
// sensor period, so both buffers are bounded.
type Recorder struct {
	cores      int
	samples    []Sample
	events     []Event
	maxSamples int
	maxEvents  int
}

// DefaultMaxSamples bounds the sample buffer (at the 10 ms sensor period
// this is ~55 minutes of simulated time).
const DefaultMaxSamples = 1 << 18

// DefaultMaxEvents bounds the event buffer. Events are far rarer than
// samples in a healthy run (a few per second of simulated time during
// balancing), so a smaller default still covers hours; a policy that
// thrashes hits the cap instead of exhausting memory.
const DefaultMaxEvents = 1 << 16

// New creates a recorder for n cores. maxSamples <= 0 takes the
// default; the event cap is DefaultMaxEvents.
func New(n, maxSamples int) *Recorder {
	if maxSamples <= 0 {
		maxSamples = DefaultMaxSamples
	}
	return &Recorder{cores: n, maxSamples: maxSamples, maxEvents: DefaultMaxEvents}
}

// AddSample appends a timeline row (copying the slices).
func (r *Recorder) AddSample(s Sample) {
	if len(r.samples) >= r.maxSamples {
		totalDroppedSamples.Add(1)
		return
	}
	cp := Sample{Time: s.Time}
	cp.Temp = append([]float64(nil), s.Temp...)
	cp.Freq = append([]float64(nil), s.Freq...)
	if s.Power != nil {
		cp.Power = append([]float64(nil), s.Power...)
	}
	r.samples = append(r.samples, cp)
}

// AddEvent appends a discrete event, mirroring AddSample's cap: events
// beyond MaxEvents are counted as dropped instead of buffered.
func (r *Recorder) AddEvent(t float64, kind, format string, args ...any) {
	if len(r.events) >= r.maxEvents {
		totalDroppedEvents.Add(1)
		return
	}
	r.events = append(r.events, Event{Time: t, Kind: kind, Text: fmt.Sprintf(format, args...)})
}

// Samples returns the recorded timeline (shared slice; treat as
// read-only).
func (r *Recorder) Samples() []Sample { return r.samples }

// Events returns the recorded events (shared slice; treat as read-only).
func (r *Recorder) Events() []Event { return r.events }

// WriteCSV renders the timeline: time, temp per core, freq (MHz) per
// core, and power per core when recorded.
func (r *Recorder) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("time_s")
	for c := 0; c < r.cores; c++ {
		fmt.Fprintf(&b, ",temp%d_c", c+1)
	}
	for c := 0; c < r.cores; c++ {
		fmt.Fprintf(&b, ",freq%d_mhz", c+1)
	}
	hasPower := len(r.samples) > 0 && r.samples[0].Power != nil
	if hasPower {
		for c := 0; c < r.cores; c++ {
			fmt.Fprintf(&b, ",power%d_w", c+1)
		}
	}
	b.WriteByte('\n')
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	for _, s := range r.samples {
		b.Reset()
		b.WriteString(strconv.FormatFloat(s.Time, 'f', 4, 64))
		for c := 0; c < r.cores; c++ {
			b.WriteByte(',')
			b.WriteString(strconv.FormatFloat(at(s.Temp, c), 'f', 3, 64))
		}
		for c := 0; c < r.cores; c++ {
			b.WriteByte(',')
			b.WriteString(strconv.FormatFloat(at(s.Freq, c)/1e6, 'f', 0, 64))
		}
		if hasPower {
			for c := 0; c < r.cores; c++ {
				b.WriteByte(',')
				b.WriteString(strconv.FormatFloat(at(s.Power, c), 'f', 4, 64))
			}
		}
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteEventsCSV renders the event log as time,kind,text rows.
func (r *Recorder) WriteEventsCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "time_s,kind,text\n"); err != nil {
		return err
	}
	for _, e := range r.events {
		line := fmt.Sprintf("%.4f,%s,%q\n", e.Time, e.Kind, e.Text)
		if _, err := io.WriteString(w, line); err != nil {
			return err
		}
	}
	return nil
}

func at(xs []float64, i int) float64 {
	if i < len(xs) {
		return xs[i]
	}
	return 0
}
