package distharness

import "strconv"

// Replica messages are flat JSON objects of string and integer fields.
// FlatEncoder and FlatDecoder handle the one shape encoding/json
// produces for them without reflection; both leave everything outside
// that shape to encoding/json, so the bytes on the wire and the
// handling of garbage datagrams are exactly encoding/json's.

// plain reports whether c can appear in a JSON string as is: printable
// ASCII other than the quote, the backslash, and the <, > and & that
// json.Marshal escapes.
func plain(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// FlatEncoder appends a flat JSON object, field by field in the order
// the caller adds them — byte-identical to json.Marshal of a struct
// with those fields, in that order, under the same omitempty rules. A
// string Marshal would escape makes Bytes report false; the caller then
// falls back to json.Marshal.
type FlatEncoder struct {
	b     []byte
	start int // offset of the object's '{' in b
	bad   bool
}

// AppendFlat starts an object appended to b.
func AppendFlat(b []byte) FlatEncoder {
	return FlatEncoder{b: append(b, '{'), start: len(b)}
}

func (e *FlatEncoder) key(k string) {
	if len(e.b) > e.start+1 {
		e.b = append(e.b, ',')
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, k...)
	e.b = append(e.b, '"', ':')
}

// Str adds a string field; omitempty skips an empty one.
func (e *FlatEncoder) Str(k, v string, omitempty bool) {
	if omitempty && v == "" {
		return
	}
	for i := 0; i < len(v); i++ {
		if !plain(v[i]) {
			e.bad = true
			return
		}
	}
	e.key(k)
	e.b = append(e.b, '"')
	e.b = append(e.b, v...)
	e.b = append(e.b, '"')
}

// Int adds an integer field; omitempty skips a zero one.
func (e *FlatEncoder) Int(k string, v int64, omitempty bool) {
	if omitempty && v == 0 {
		return
	}
	e.key(k)
	e.b = strconv.AppendInt(e.b, v, 10)
}

// Bytes closes the object and returns the buffer with it appended. ok
// is false if a string field needed escaping.
func (e *FlatEncoder) Bytes() (b []byte, ok bool) {
	return append(e.b, '}'), !e.bad
}

// FlatDecoder reads the shape FlatEncoder writes: {"k":v,...} with no
// whitespace, keys exactly as given and in the caller's field order,
// each at most once, strings of plain characters, and decimal integers
// with no leading zero that fit their field. The caller asks for each
// field in order with Key and reads its value; Done then reports
// whether the whole input had that shape. When it did not — even if
// the input is valid JSON (other key order or case, duplicates,
// escapes, whitespace) — the caller decodes it with encoding/json
// instead.
type FlatDecoder struct {
	b   []byte
	i   int
	bad bool
}

// NewFlatDecoder starts reading the object b.
func NewFlatDecoder(b []byte) FlatDecoder {
	return FlatDecoder{b: b, i: 1, bad: len(b) < 2 || b[0] != '{'}
}

// Key consumes the next field's key if it is k, and reports whether it
// did; the caller then reads the value.
func (d *FlatDecoder) Key(k string) bool {
	if d.bad {
		return false
	}
	b, i := d.b, d.i
	if i > 1 {
		if i >= len(b) || b[i] != ',' {
			return false
		}
		i++
	}
	end := i + 1 + len(k)
	if end+1 >= len(b) || b[i] != '"' || string(b[i+1:end]) != k || b[end] != '"' || b[end+1] != ':' {
		return false
	}
	d.i = end + 2
	return true
}

// Str reads a string value. A value equal to one of common is returned
// as that string, without allocating a copy.
func (d *FlatDecoder) Str(common ...string) string {
	b, i := d.b, d.i
	if d.bad || i >= len(b) || b[i] != '"' {
		d.bad = true
		return ""
	}
	start := i + 1
	for i = start; i < len(b) && b[i] != '"'; i++ {
		if !plain(b[i]) {
			d.bad = true
			return ""
		}
	}
	if i == len(b) {
		d.bad = true
		return ""
	}
	d.i = i + 1
	v := b[start:i]
	for _, s := range common {
		if string(v) == s {
			return s
		}
	}
	return string(v)
}

// Int reads an int value.
func (d *FlatDecoder) Int() int { return int(d.integer(strconv.IntSize)) }

// Int64 reads an int64 value.
func (d *FlatDecoder) Int64() int64 { return d.integer(64) }

// integer reads a decimal integer that fits in bits bits.
func (d *FlatDecoder) integer(bits int) int64 {
	b, i := d.b, d.i
	if d.bad {
		return 0
	}
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		if i-start == 19 { // more digits than any int64 has
			d.bad = true
			return 0
		}
		u = u*10 + uint64(b[i]-'0')
	}
	limit := uint64(1)<<(bits-1) - 1 // largest magnitude of a positive value
	if neg {
		limit++
	}
	if i == start || (b[start] == '0' && i-start > 1) || (neg && u == 0) || u > limit {
		d.bad = true
		return 0
	}
	d.i = i
	if neg {
		return -int64(u)
	}
	return int64(u)
}

// Done reports whether the input was exactly the fixed shape: every
// field read, and the closing brace its last byte.
func (d *FlatDecoder) Done() bool {
	return !d.bad && d.i == len(d.b)-1 && d.b[d.i] == '}'
}
