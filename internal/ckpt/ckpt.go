// Package ckpt is the flat encoding of simulation-engine checkpoints
// (sim.Checkpoint). Every stateful component appends its mutable state
// to a Writer and reads it back from a Reader in the same order. A
// checkpoint is therefore one pointer-free byte slice of exactly its
// size, whatever the size of the simulated die, so a process can hold
// many without pinning partly used heap spans.
//
// Integers are varints. A float is the varint of its IEEE-754 bits
// with the bytes reversed, as encoding/gob does: zero takes one byte,
// and values with short mantissas (frequencies, whole cycle counts)
// take few. Every value round-trips bit for bit.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Writer accumulates an encoding.
type Writer struct {
	buf []byte
}

// Bytes returns the encoding in a new slice of exactly its length.
func (w *Writer) Bytes() []byte { return append([]byte(nil), w.buf...) }

// Int appends v.
func (w *Writer) Int(v int) { w.buf = binary.AppendVarint(w.buf, int64(v)) }

// Int64 appends v.
func (w *Writer) Int64(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Float appends v bit for bit.
func (w *Writer) Float(v float64) {
	w.buf = binary.AppendUvarint(w.buf, bits.ReverseBytes64(math.Float64bits(v)))
}

// Bool appends v.
func (w *Writer) Bool(v bool) {
	var b byte
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}

// String appends len(s) and the bytes of s.
func (w *Writer) String(s string) {
	w.Int(len(s))
	w.buf = append(w.buf, s...)
}

// Floats appends len(xs) and every element.
func (w *Writer) Floats(xs []float64) {
	w.Int(len(xs))
	for _, x := range xs {
		w.Float(x)
	}
}

// Int64s appends len(xs) and every element.
func (w *Writer) Int64s(xs []int64) {
	w.Int(len(xs))
	for _, x := range xs {
		w.Int64(x)
	}
}

// Ints appends len(xs) and every element.
func (w *Writer) Ints(xs []int) {
	w.Int(len(xs))
	for _, x := range xs {
		w.Int(x)
	}
}

// Bools appends len(xs) and every element.
func (w *Writer) Bools(xs []bool) {
	w.Int(len(xs))
	for _, x := range xs {
		w.Bool(x)
	}
}

// Reader decodes what a Writer appended, in the same order. A
// malformed encoding or a length mismatch records an error, after which
// every read returns zero; Done reports the first.
type Reader struct {
	buf []byte
	err error
}

// NewReader decodes b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

var errCorrupt = errors.New("ckpt: checkpoint is truncated or corrupt")

// Done returns the first error, or an error if any byte is left
// unread.
func (r *Reader) Done() error {
	if r.err == nil && len(r.buf) > 0 {
		return fmt.Errorf("ckpt: %d bytes left unread", len(r.buf))
	}
	return r.err
}

// Fail records err unless an error is already recorded.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.Fail(errCorrupt)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Int reads an Int.
func (r *Reader) Int() int { return int(r.varint()) }

// Int64 reads an Int64.
func (r *Reader) Int64() int64 { return r.varint() }

// Float reads a Float.
func (r *Reader) Float() float64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.Fail(errCorrupt)
		return 0
	}
	r.buf = r.buf[n:]
	return math.Float64frombits(bits.ReverseBytes64(v))
}

// Bool reads a Bool.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.buf) == 0 {
		r.Fail(errCorrupt)
		return false
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b != 0
}

// String reads a String.
func (r *Reader) String() string {
	n := r.Len(-1)
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

// Len reads a length. When want >= 0 the length must equal it: the
// checkpoint was taken from a component of the same shape. A length no
// remaining encoding could hold is corrupt.
func (r *Reader) Len(want int) int {
	n := r.Int()
	switch {
	case r.err != nil:
		return 0
	case n < 0 || n > len(r.buf):
		r.Fail(errCorrupt)
		return 0
	case want >= 0 && n != want:
		r.Fail(fmt.Errorf("ckpt: %d elements where the restored component has %d", n, want))
		return 0
	}
	return n
}

// Floats reads a Floats into dst, which must have the recorded length.
func (r *Reader) Floats(dst []float64) {
	for i := range r.Len(len(dst)) {
		dst[i] = r.Float()
	}
}

// Int64s reads an Int64s into dst, which must have the recorded length.
func (r *Reader) Int64s(dst []int64) {
	for i := range r.Len(len(dst)) {
		dst[i] = r.Int64()
	}
}

// Ints reads an Ints into dst, which must have the recorded length.
func (r *Reader) Ints(dst []int) {
	for i := range r.Len(len(dst)) {
		dst[i] = r.Int()
	}
}

// Bools reads a Bools into dst, which must have the recorded length.
func (r *Reader) Bools(dst []bool) {
	for i := range r.Len(len(dst)) {
		dst[i] = r.Bool()
	}
}
