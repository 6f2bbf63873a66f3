package trace

import (
	"strings"
	"testing"
)

func TestRecorderSamplesAndCSV(t *testing.T) {
	r := New(2)
	r.AddSample(Sample{Time: 0.01, Temp: []float64{50, 40.25}, Freq: []float64{533e6, 266e6}})
	r.AddSample(Sample{Time: 0.02, Temp: []float64{51, 41}, Freq: []float64{533e6, 266e6}})
	if len(r.Samples()) != 2 {
		t.Fatalf("samples = %d", len(r.Samples()))
	}
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "time_s,temp1_c,temp2_c,freq1_mhz,freq2_mhz" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "50.000") || !strings.Contains(lines[1], "533") {
		t.Errorf("row = %q", lines[1])
	}
	// Fixed precision per column: 4-decimal time, 3-decimal
	// temperatures, whole MHz.
	for i, want := range []string{"0.0100,50.000,40.250,533,266", "0.0200,51.000,41.000,533,266"} {
		if lines[1+i] != want {
			t.Errorf("row %d = %q, want %q", i+1, lines[1+i], want)
		}
	}
}

func TestSampleCopySemantics(t *testing.T) {
	r := New(1)
	temp := []float64{50}
	r.AddSample(Sample{Time: 0, Temp: temp, Freq: []float64{1}})
	temp[0] = 99 // mutating caller data must not affect the record
	if r.Samples()[0].Temp[0] != 50 {
		t.Error("recorder shared caller slice")
	}
}

// AddSample keeps the first maxSamples rows and counts the rest as
// dropped, leaving the event count alone.
func TestSampleCap(t *testing.T) {
	r := New(1)
	r.maxSamples = 3
	for i := 0; i < 5; i++ {
		r.AddSample(Sample{Time: float64(i), Temp: []float64{1}, Freq: []float64{1}})
	}
	if len(r.Samples()) != 3 || r.Samples()[2].Time != 2 {
		t.Errorf("samples = %d, want the first 3", len(r.Samples()))
	}
	if s, e := r.Dropped(); s != 2 || e != 0 {
		t.Errorf("dropped = %d samples, %d events; want 2, 0", s, e)
	}
}

func TestEventsCSV(t *testing.T) {
	r := New(1)
	r.AddEvent(1.5, "migrate", "task %s moved", "BPF1")
	var sb strings.Builder
	if err := r.WriteEventsCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "1.5000,migrate") || !strings.Contains(out, "BPF1") {
		t.Errorf("events CSV = %q", out)
	}
	if len(r.Events()) != 1 {
		t.Errorf("events = %d", len(r.Events()))
	}
}

func TestShortRowsPadded(t *testing.T) {
	r := New(3)
	r.AddSample(Sample{Time: 0, Temp: []float64{50}, Freq: []float64{1e6}})
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	row := strings.Split(strings.TrimSpace(sb.String()), "\n")[1]
	if got := strings.Count(row, ","); got != 6 {
		t.Errorf("row has %d commas, want 6 (time + 3 temps + 3 freqs): %q", got, row)
	}
}

// AddEvent must honor the MaxEvents cap and count drops, mirroring the
// sample cap (unbounded event growth leaked memory on long runs under
// thrashing policies).
func TestEventCap(t *testing.T) {
	r := New(1)
	r.maxEvents = 3
	for i := 0; i < 10; i++ {
		r.AddEvent(float64(i), "migrate-req", "event %d", i)
	}
	if len(r.Events()) != 3 {
		t.Errorf("events buffered = %d, want 3", len(r.Events()))
	}
	if _, e := r.Dropped(); e != 7 {
		t.Errorf("dropped events = %d, want 7", e)
	}
	if r.Events()[2].Text != "event 2" {
		t.Errorf("kept wrong events: last = %q", r.Events()[2].Text)
	}
	// Samples are unaffected by the event cap.
	r.AddSample(Sample{Time: 1, Temp: []float64{40}, Freq: []float64{1}})
	if s, _ := r.Dropped(); len(r.Samples()) != 1 || s != 0 {
		t.Errorf("samples %d dropped %d", len(r.Samples()), s)
	}
}

func TestEventCapDefaults(t *testing.T) {
	r := New(1)
	r.AddEvent(0, "k", "x")
	if len(r.Events()) != 1 {
		t.Fatal("default-capped recorder rejected first event")
	}
	if r.maxEvents != DefaultMaxEvents || r.maxSamples != DefaultMaxSamples {
		t.Errorf("caps = %d events, %d samples; want %d, %d", r.maxEvents, r.maxSamples, DefaultMaxEvents, DefaultMaxSamples)
	}
	for i := 0; i < 10; i++ {
		r.AddEvent(float64(i), "k", "y")
	}
	if s, e := r.Dropped(); s != 0 || e != 0 {
		t.Errorf("dropped %d samples, %d events under the default caps", s, e)
	}
}
