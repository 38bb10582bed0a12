// Package binrec reads and writes the primitives every binary record
// in this repository is built from: the wire's run frames
// (internal/exec), scenario records (internal/scenario) and the
// store's snapshot and journal records (internal/explore).
//
// An integer is a uvarint, a signed one a zigzag varint
// (encoding/binary's AppendUvarint and AppendVarint), a string a
// uvarint length and its bytes, a flag one byte, 0 or 1, and an
// element count a uvarint. Each has one encoding, and the Reader
// refuses any other:
//
//   - a varint must be minimal (no trailing 0x80 … 0x00 padding) and
//     fit in 64 bits;
//   - a count or a string length may not exceed the bytes left, since
//     every element takes at least one byte, so a hostile count is
//     refused before anything is allocated for it;
//   - a flag is 0 or 1.
package binrec

import (
	"encoding/binary"
	"fmt"
)

// Reader is a cursor over one record. The first error sticks, with the
// offset it happened at, and moves the cursor to the end: every later
// read returns a zero value.
//
// Over a string source, String and Take alias it; over a []byte
// source, String copies, so a decoded string never pins a buffer the
// caller reuses.
type Reader[T ~string | ~[]byte] struct {
	src T
	off int
	err error
}

// NewReader returns a Reader over src.
func NewReader[T ~string | ~[]byte](src T) Reader[T] {
	return Reader[T]{src: src}
}

// Err returns the first error, or nil.
func (r *Reader[T]) Err() error { return r.err }

// Len returns the number of bytes left.
func (r *Reader[T]) Len() int { return len(r.src) - r.off }

// Fail records an error at the current offset, unless one is already
// recorded. Decoders report their own rules (an order, a bound) through
// it. It is the readers' cold path, kept out of line so they stay
// small enough to inline.
//
//go:noinline
func (r *Reader[T]) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("at offset %d: "+format, append([]any{r.off}, args...)...)
		r.off = len(r.src)
	}
}

// Finish returns the first error, recording one if any bytes are left:
// a record fills its source whole.
func (r *Reader[T]) Finish() error {
	if r.off != len(r.src) {
		r.Fail("%d bytes after the record", len(r.src)-r.off)
	}
	return r.err
}

// Byte reads one byte.
func (r *Reader[T]) Byte() byte {
	if r.off < len(r.src) {
		r.off++
		return r.src[r.off-1]
	}
	r.Fail("truncated")
	return 0
}

// Flag reads a flag byte, 0 or 1.
func (r *Reader[T]) Flag() bool {
	c := r.Byte()
	if c > 1 {
		r.Fail("flag byte %d", c)
	}
	return c == 1
}

// Uvarint reads a minimally encoded uvarint of at most 64 bits.
func (r *Reader[T]) Uvarint() uint64 {
	if r.off < len(r.src) && r.src[r.off] < 0x80 {
		r.off++
		return uint64(r.src[r.off-1])
	}
	var v uint64
	for shift := uint(0); ; shift += 7 {
		c := r.Byte()
		switch {
		case r.err != nil:
			return 0
		case shift == 63 && c > 1:
			r.Fail("varint overflows 64 bits")
			return 0
		case c == 0:
			r.Fail("non-minimal varint")
			return 0
		case c < 0x80:
			return v | uint64(c)<<shift
		}
		v |= uint64(c&0x7f) << shift
	}
}

// Varint reads a zigzag varint.
func (r *Reader[T]) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Count reads an element count, refusing one beyond the bytes left.
func (r *Reader[T]) Count() int {
	n := r.Uvarint()
	if n > uint64(r.Len()) {
		r.Fail("count %d exceeds the %d bytes left", n, r.Len())
		return 0
	}
	return int(n)
}

// Take reads the next n bytes as they are.
func (r *Reader[T]) Take(n int) T {
	if n > r.Len() {
		r.Fail("truncated")
		n = 0
	}
	r.off += n
	return r.src[r.off-n : r.off]
}

// String reads a length-prefixed string.
func (r *Reader[T]) String() string { return string(r.Take(r.Count())) }

// AppendString appends s, length-prefixed, to b.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendFlag appends v as a flag byte to b.
func AppendFlag(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}
