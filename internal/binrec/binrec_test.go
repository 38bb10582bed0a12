package binrec

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"unsafe"
)

// TestReaderAccepts: every primitive the writers produce reads back,
// extremes included, and the record ends exactly where it was written
// to.
func TestReaderAccepts(t *testing.T) {
	var b []byte
	b = binary.AppendUvarint(b, 0)
	b = binary.AppendUvarint(b, math.MaxUint64)
	b = binary.AppendVarint(b, math.MinInt64)
	b = AppendString(b, "")
	b = AppendString(b, "block")
	b = AppendFlag(AppendFlag(b, true), false)
	b = append(b, 0xB2)
	r := NewReader(b)
	if got := r.Uvarint(); got != 0 {
		t.Errorf("Uvarint = %d, want 0", got)
	}
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Errorf("Uvarint = %d, want MaxUint64", got)
	}
	if got := r.Varint(); got != math.MinInt64 {
		t.Errorf("Varint = %d, want MinInt64", got)
	}
	if a, b := r.String(), r.String(); a != "" || b != "block" {
		t.Errorf("String, String = %q, %q", a, b)
	}
	if a, b := r.Flag(), r.Flag(); !a || b {
		t.Errorf("Flag, Flag = %v, %v", a, b)
	}
	if got := r.Byte(); got != 0xB2 {
		t.Errorf("Byte = %#x", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRejects: every encoding no writer produces is refused, and
// the error sticks: the reader is at its end and reads zero values.
func TestReaderRejects(t *testing.T) {
	for name, c := range map[string]struct {
		src  string
		read func(r *Reader[string])
	}{
		"non-minimal varint":  {"\x80\x00", func(r *Reader[string]) { r.Uvarint() }},
		"non-minimal 10 byte": {"\xff\xff\xff\xff\xff\xff\xff\xff\xff\x00", func(r *Reader[string]) { r.Uvarint() }},
		"varint overflow":     {"\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02", func(r *Reader[string]) { r.Uvarint() }},
		"eleven-byte varint":  {"\xff\xff\xff\xff\xff\xff\xff\xff\xff\x81\x00", func(r *Reader[string]) { r.Uvarint() }},
		"truncated varint":    {"\x80", func(r *Reader[string]) { r.Varint() }},
		"count beyond bytes":  {"\x03ab", func(r *Reader[string]) { r.Count() }},
		"string beyond bytes": {"\x05ab", func(r *Reader[string]) { _ = r.String() }},
		"flag byte 2":         {"\x02", func(r *Reader[string]) { r.Flag() }},
		"empty byte":          {"", func(r *Reader[string]) { r.Byte() }},
		"take beyond bytes":   {"ab", func(r *Reader[string]) { r.Take(3) }},
		"trailing bytes":      {"\x01\x00", func(r *Reader[string]) { r.Uvarint() }},
		"caller's rule":       {"\x01\x00", func(r *Reader[string]) { r.Fail("out of order") }},
	} {
		r := NewReader(c.src)
		c.read(&r)
		if r.Finish() == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		err := r.Err()
		if r.Len() != 0 || r.Uvarint() != 0 || r.String() != "" || r.Flag() || r.Take(0) != "" {
			t.Errorf("%s: reads after the error are not zero values", name)
		}
		if r.Err() != err {
			t.Errorf("%s: error %v replaced by %v", name, err, r.Err())
		}
	}
}

// TestReaderStrings: over a string, String aliases the source; over a
// []byte it copies, so the caller may reuse its buffer.
func TestReaderStrings(t *testing.T) {
	src := string(AppendString(nil, "block"))
	r := NewReader(src)
	if s := r.String(); unsafe.StringData(s) != unsafe.StringData(src[1:]) {
		t.Error("String over a string copied it")
	}
	buf := []byte(src)
	rb := NewReader(buf)
	s := rb.String()
	copy(buf, "\x05xxxxx")
	if s != "block" {
		t.Errorf("String over a []byte aliases it: %q after the buffer was reused", s)
	}
}

// read applies one read, chosen by op, and returns the writers'
// encoding of the value it got. A Count beyond the bytes left fails
// the test.
func read[T ~string | ~[]byte](t *testing.T, r *Reader[T], op byte) []byte {
	switch op % 7 {
	case 0:
		return binary.AppendUvarint(nil, r.Uvarint())
	case 1:
		return binary.AppendVarint(nil, r.Varint())
	case 2:
		n := r.Count()
		if n > r.Len() {
			t.Fatalf("Count %d with %d bytes left", n, r.Len())
		}
		return binary.AppendUvarint(nil, uint64(n))
	case 3:
		return AppendString(nil, r.String())
	case 4:
		return []byte{r.Byte()}
	case 5:
		return AppendFlag(nil, r.Flag())
	default:
		return []byte(string(r.Take(int(op >> 3))))
	}
}

// FuzzReader: arbitrary bytes read in an arbitrary order of
// primitives never panic; every value a read accepts re-encodes to
// exactly the bytes it consumed, so each primitive has one encoding;
// a count never exceeds the bytes left; a failed read leaves the
// reader at its end; and a []byte source reads as its string does.
func FuzzReader(f *testing.F) {
	rec := binary.AppendUvarint(nil, 300)
	rec = binary.AppendVarint(rec, -7)
	rec = AppendString(rec, "block")
	rec = AppendFlag(rec, true)
	f.Add(rec, []byte{0, 1, 3, 5})
	f.Add(rec, []byte{2, 4, 6 | 2<<3})
	f.Add([]byte{0x80, 0x00}, []byte{0})
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"), []byte{0, 1})
	f.Add([]byte{0x05, 'a', 'b'}, []byte{3, 2})
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		rb, rs := NewReader(data), NewReader(string(data))
		for _, op := range ops {
			off := len(data) - rb.Len()
			got := read(t, &rb, op)
			if fromString := read(t, &rs, op); !bytes.Equal(got, fromString) || rs.Len() != rb.Len() || (rs.Err() == nil) != (rb.Err() == nil) {
				t.Fatalf("op %d at %d: []byte read %x (%d left, %v), string read %x (%d left, %v)",
					op, off, got, rb.Len(), rb.Err(), fromString, rs.Len(), rs.Err())
			}
			if rb.Err() != nil {
				if rb.Len() != 0 {
					t.Fatalf("op %d at %d failed with %d bytes left: %v", op, off, rb.Len(), rb.Err())
				}
				continue
			}
			if consumed := data[off : len(data)-rb.Len()]; !bytes.Equal(got, consumed) {
				t.Fatalf("op %d at %d: consumed %x, which re-encodes as %x", op, off, consumed, got)
			}
		}
	})
}
