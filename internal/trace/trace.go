// Package trace records simulation timelines (temperatures, frequencies,
// events) and renders them as CSV — the reproduction's equivalent of the
// paper's UART statistics extraction (Section 4).
package trace

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Sample is one row of the periodic timeline.
type Sample struct {
	Time float64
	Temp []float64 // per-core °C
	Freq []float64 // per-core Hz
}

// Event is a discrete occurrence (migration, stop, start, miss burst).
type Event struct {
	Time float64
	Kind string
	Text string
}

// Recorder buffers samples and events. The zero value records nothing;
// construct with New. The DefaultMaxSamples and DefaultMaxEvents caps
// guard memory on long runs — a thrashing policy can emit events far
// faster than the sensor period, so both buffers are bounded — and
// what a cap discards is counted, so a truncated timeline says so.
type Recorder struct {
	cores      int
	samples    []Sample
	events     []Event
	maxSamples int
	maxEvents  int

	droppedSamples, droppedEvents int
}

// DefaultMaxSamples bounds the sample buffer (at the 10 ms sensor period
// this is ~55 minutes of simulated time).
const DefaultMaxSamples = 1 << 18

// DefaultMaxEvents bounds the event buffer. Events are far rarer than
// samples in a healthy run (a few per second of simulated time during
// balancing), so a smaller default still covers hours; a policy that
// thrashes hits the cap instead of exhausting memory.
const DefaultMaxEvents = 1 << 16

// New creates a recorder for n cores with the default caps.
func New(n int) *Recorder {
	return &Recorder{cores: n, maxSamples: DefaultMaxSamples, maxEvents: DefaultMaxEvents}
}

// AddSample appends a timeline row (copying the slices), or counts it
// as dropped once the sample cap is reached.
func (r *Recorder) AddSample(s Sample) {
	if len(r.samples) >= r.maxSamples {
		r.droppedSamples++
		return
	}
	r.samples = append(r.samples, Sample{
		Time: s.Time,
		Temp: append([]float64(nil), s.Temp...),
		Freq: append([]float64(nil), s.Freq...),
	})
}

// AddEvent appends a discrete event, mirroring AddSample's cap: events
// beyond the event cap are counted as dropped instead of buffered.
func (r *Recorder) AddEvent(t float64, kind, format string, args ...any) {
	if len(r.events) >= r.maxEvents {
		r.droppedEvents++
		return
	}
	r.events = append(r.events, Event{Time: t, Kind: kind, Text: fmt.Sprintf(format, args...)})
}

// Samples returns the recorded timeline (shared slice; treat as
// read-only).
func (r *Recorder) Samples() []Sample { return r.samples }

// Events returns the recorded events (shared slice; treat as read-only).
func (r *Recorder) Events() []Event { return r.events }

// Dropped returns how many samples and events the caps discarded: a
// nonzero count means the timeline or the event log stops early.
func (r *Recorder) Dropped() (samples, events int) { return r.droppedSamples, r.droppedEvents }

// WriteCSV renders the timeline: time, temp per core and freq (MHz)
// per core.
func (r *Recorder) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("time_s")
	for c := 0; c < r.cores; c++ {
		fmt.Fprintf(&b, ",temp%d_c", c+1)
	}
	for c := 0; c < r.cores; c++ {
		fmt.Fprintf(&b, ",freq%d_mhz", c+1)
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
