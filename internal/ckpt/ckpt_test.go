package ckpt

import (
	"math"
	"strings"
	"testing"
)

// Every value round-trips bit for bit, in order, and the reader ends
// exactly at the end of the encoding.
func TestRoundTrip(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1.5, 533e6, 0.1, math.SmallestNonzeroFloat64,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0001)}
	ints := []int{0, 1, -1, 1 << 40, math.MaxInt, math.MinInt}
	var w Writer
	w.Floats(floats)
	w.Ints(ints)
	w.Int64s([]int64{math.MaxInt64, math.MinInt64, 7})
	w.Bools([]bool{true, false, true})
	w.String("")
	w.String("migr:BPF1 — ünïcode")
	w.Float(2.5)
	b := w.Bytes()

	r := NewReader(b)
	gotF := make([]float64, len(floats))
	r.Floats(gotF)
	for i, f := range floats {
		if math.Float64bits(gotF[i]) != math.Float64bits(f) {
			t.Errorf("float %d: %x, want %x", i, math.Float64bits(gotF[i]), math.Float64bits(f))
		}
	}
	gotI := make([]int, len(ints))
	r.Ints(gotI)
	for i := range ints {
		if gotI[i] != ints[i] {
			t.Errorf("int %d: %d, want %d", i, gotI[i], ints[i])
		}
	}
	got64 := make([]int64, 3)
	r.Int64s(got64)
	if got64[0] != math.MaxInt64 || got64[1] != math.MinInt64 || got64[2] != 7 {
		t.Errorf("int64s %v", got64)
	}
	gotB := make([]bool, 3)
	r.Bools(gotB)
	if !gotB[0] || gotB[1] || !gotB[2] {
		t.Errorf("bools %v", gotB)
	}
	if s := r.String(); s != "" {
		t.Errorf("empty string read as %q", s)
	}
	if s := r.String(); s != "migr:BPF1 — ünïcode" {
		t.Errorf("string %q", s)
	}
	if f := r.Float(); f != 2.5 {
		t.Errorf("float %g", f)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// Short floats encode short: zero in one byte, whole frequencies and
// small powers of two in fewer than the eight raw bytes.
func TestFloatEncodingIsCompact(t *testing.T) {
	for _, tc := range []struct {
		v   float64
		max int
	}{{0, 1}, {533e6, 6}, {1, 3}} {
		var w Writer
		w.Float(tc.v)
		if n := len(w.Bytes()); n > tc.max {
			t.Errorf("%g encodes in %d bytes, want ≤ %d", tc.v, n, tc.max)
		}
	}
}

// A shape mismatch, a truncated encoding and trailing bytes are errors,
// and after the first error every read is zero.
func TestReaderErrors(t *testing.T) {
	var w Writer
	w.Floats([]float64{1, 2, 3})
	w.Int(42)
	b := w.Bytes()

	r := NewReader(b)
	r.Floats(make([]float64, 2))
	if err := r.Done(); err == nil || !strings.Contains(err.Error(), "3 elements where the restored component has 2") {
		t.Errorf("length mismatch: %v", err)
	}
	if v := r.Int(); v != 0 {
		t.Errorf("read after an error gave %d", v)
	}

	r = NewReader(b[:len(b)-1])
	r.Floats(make([]float64, 3))
	if r.Int(); r.Done() == nil {
		t.Error("truncated encoding read without error")
	}

	r = NewReader(b)
	r.Floats(make([]float64, 3))
	if err := r.Done(); err == nil {
		t.Error("unread trailing bytes not reported")
	}

	r = NewReader([]byte{0x7f}) // length 63 with nothing behind it
	if s := r.String(); s != "" || r.Done() == nil {
		t.Errorf("corrupt string length: %q, %v", s, r.Done())
	}
}
