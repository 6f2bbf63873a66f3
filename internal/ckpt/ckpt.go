// Package ckpt is the flat encoding of simulation-engine checkpoints
// (sim.Checkpoint). Every stateful component names its mutable fields
// once, in one method that hands a pointer to each to a Codec: a
// writing Codec appends the field, a reading one overwrites it with
// what was written, in the same order. A checkpoint is therefore one
// pointer-free byte slice of exactly its size, whatever the size of
// the simulated die, so a process can hold many without pinning partly
// used heap spans.
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

// Codec writes or reads one encoding. The zero Codec writes; NewReader
// makes one that reads. A malformed encoding or a length mismatch
// records an error on a reading Codec, after which every read stores
// zero; Done reports the first.
type Codec struct {
	buf     []byte
	reading bool
	err     error
}

// NewReader returns a Codec that reads b.
func NewReader(b []byte) *Codec { return &Codec{buf: b, reading: true} }

// Reading reports whether c reads. Components branch on it only to
// allocate or re-link what a restore rebuilds.
func (c *Codec) Reading() bool { return c.reading }

// Bytes returns what a writing Codec wrote, in a new slice of exactly
// its length.
func (c *Codec) Bytes() []byte { return append([]byte(nil), c.buf...) }

var errCorrupt = errors.New("ckpt: checkpoint is truncated or corrupt")

// Done returns the first error, or an error if any byte is left
// unread.
func (c *Codec) Done() error {
	if c.err == nil && c.reading && len(c.buf) > 0 {
		return fmt.Errorf("ckpt: %d bytes left unread", len(c.buf))
	}
	return c.err
}

// Fail records err unless an error is already recorded.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

func (c *Codec) varint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.buf)
	if n <= 0 {
		c.Fail(errCorrupt)
		return 0
	}
	c.buf = c.buf[n:]
	return v
}

func (c *Codec) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.buf)
	if n <= 0 {
		c.Fail(errCorrupt)
		return 0
	}
	c.buf = c.buf[n:]
	return v
}

// Int writes or reads *v.
func (c *Codec) Int(v *int) {
	if !c.reading {
		c.buf = binary.AppendVarint(c.buf, int64(*v))
		return
	}
	*v = int(c.varint())
}

// Int64 writes or reads *v.
func (c *Codec) Int64(v *int64) {
	if !c.reading {
		c.buf = binary.AppendVarint(c.buf, *v)
		return
	}
	*v = c.varint()
}

// Float writes or reads *v bit for bit.
func (c *Codec) Float(v *float64) {
	if !c.reading {
		c.buf = binary.AppendUvarint(c.buf, bits.ReverseBytes64(math.Float64bits(*v)))
		return
	}
	*v = math.Float64frombits(bits.ReverseBytes64(c.uvarint()))
}

// Bool writes or reads *v.
func (c *Codec) Bool(v *bool) {
	if !c.reading {
		var b byte
		if *v {
			b = 1
		}
		c.buf = append(c.buf, b)
		return
	}
	*v = false
	switch {
	case c.err != nil:
	case len(c.buf) == 0:
		c.Fail(errCorrupt)
	default:
		*v = c.buf[0] != 0
		c.buf = c.buf[1:]
	}
}

// String writes or reads the length and bytes of *s.
func (c *Codec) String(s *string) {
	n := len(*s)
	c.Count(&n)
	if !c.reading {
		c.buf = append(c.buf, *s...)
		return
	}
	*s = string(c.buf[:n])
	c.buf = c.buf[n:]
}

// Count writes or reads the length *n of a variable-length field. A
// read length no remaining encoding could hold is corrupt.
func (c *Codec) Count(n *int) {
	c.Int(n)
	if c.reading && c.err == nil && (*n < 0 || *n > len(c.buf)) {
		c.Fail(errCorrupt)
	}
	if c.err != nil {
		*n = 0
	}
}

// Len writes the length n of a fixed-shape field, or reads a length
// and checks that it is n: the checkpoint was taken from a component
// of the same shape. It returns how many elements follow, 0 after an
// error.
func (c *Codec) Len(n int) int {
	got := n
	c.Count(&got)
	if c.err == nil && got != n {
		c.Fail(fmt.Errorf("ckpt: %d elements where the restored component has %d", got, n))
		got = 0
	}
	return got
}

// Floats writes or reads len(xs) and every element of xs.
func (c *Codec) Floats(xs []float64) { each(c, xs, (*Codec).Float) }

// Int64s writes or reads len(xs) and every element of xs.
func (c *Codec) Int64s(xs []int64) { each(c, xs, (*Codec).Int64) }

// Ints writes or reads len(xs) and every element of xs.
func (c *Codec) Ints(xs []int) { each(c, xs, (*Codec).Int) }

// Bools writes or reads len(xs) and every element of xs.
func (c *Codec) Bools(xs []bool) { each(c, xs, (*Codec).Bool) }

func each[T any](c *Codec, xs []T, elem func(*Codec, *T)) {
	for i := range c.Len(len(xs)) {
		elem(c, &xs[i])
	}
}
