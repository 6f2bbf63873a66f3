package ckpt

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// values is one of every kind a Codec carries.
type values struct {
	floats []float64
	ints   []int
	int64s []int64
	bools  []bool
	empty  string
	text   string
	f      float64
	i      int
	i64    int64
	b      bool
}

// ckpt names every field of v once, as a component does.
func (v *values) ckpt(c *Codec) {
	c.Floats(v.floats)
	c.Ints(v.ints)
	c.Int64s(v.int64s)
	c.Bools(v.bools)
	c.String(&v.empty)
	c.String(&v.text)
	c.Float(&v.f)
	c.Int(&v.i)
	c.Int64(&v.i64)
	c.Bool(&v.b)
}

// Every value round-trips bit for bit through one field list, and the
// reading Codec ends exactly at the end of the encoding.
func TestRoundTrip(t *testing.T) {
	in := values{
		floats: []float64{0, math.Copysign(0, -1), 1, -1.5, 533e6, 0.1, math.SmallestNonzeroFloat64,
			math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0001)},
		ints:   []int{0, 1, -1, 1 << 30, math.MaxInt, math.MinInt},
		int64s: []int64{math.MaxInt64, math.MinInt64, 1 << 40, 7},
		bools:  []bool{true, false, true},
		text:   "migr:BPF1 — ünïcode",
		f:      2.5, i: -3, i64: -1 << 40, b: true,
	}
	var w Codec
	in.ckpt(&w)

	out := values{floats: make([]float64, len(in.floats)), ints: make([]int, len(in.ints)),
		int64s: make([]int64, len(in.int64s)), bools: make([]bool, len(in.bools)), empty: "stale"}
	r := NewReader(w.Bytes())
	out.ckpt(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	for i, f := range in.floats {
		if math.Float64bits(out.floats[i]) != math.Float64bits(f) {
			t.Errorf("float %d: %x, want %x", i, math.Float64bits(out.floats[i]), math.Float64bits(f))
		}
	}
	in.floats, out.floats = nil, nil // NaN ≠ NaN: compared by bits above
	if !reflect.DeepEqual(out, in) {
		t.Errorf("read %+v, want %+v", out, in)
	}
}

// Short floats encode short: zero in one byte, whole frequencies and
// small powers of two in fewer than the eight raw bytes.
func TestFloatEncodingIsCompact(t *testing.T) {
	for _, tc := range []struct {
		v   float64
		max int
	}{{0, 1}, {533e6, 6}, {1, 3}} {
		var w Codec
		w.Float(&tc.v)
		if n := len(w.Bytes()); n > tc.max {
			t.Errorf("%g encodes in %d bytes, want ≤ %d", tc.v, n, tc.max)
		}
	}
}

// A shape mismatch, a truncated encoding and trailing bytes are errors,
// and after the first error every read stores zero.
func TestReaderErrors(t *testing.T) {
	var w Codec
	w.Floats([]float64{1, 2, 3})
	n := 42
	w.Int(&n)
	b := w.Bytes()

	r := NewReader(b)
	r.Floats(make([]float64, 2))
	if err := r.Done(); err == nil || !strings.Contains(err.Error(), "3 elements where the restored component has 2") {
		t.Errorf("length mismatch: %v", err)
	}
	if r.Int(&n); n != 0 {
		t.Errorf("read after an error gave %d", n)
	}

	r = NewReader(b[:len(b)-1])
	r.Floats(make([]float64, 3))
	if r.Int(&n); r.Done() == nil {
		t.Error("truncated encoding read without error")
	}

	r = NewReader(b)
	r.Floats(make([]float64, 3))
	if err := r.Done(); err == nil {
		t.Error("unread trailing bytes not reported")
	}

	r = NewReader([]byte{0x7f}) // length 63 with nothing behind it
	s := "stale"
	if r.String(&s); s != "" || r.Done() == nil {
		t.Errorf("corrupt string length: %q, %v", s, r.Done())
	}
}
