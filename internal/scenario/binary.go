package scenario

import (
	"encoding/binary"
	"fmt"
	"slices"

	"lfi/internal/trigger"
)

// This file is the binary record of a scenario: the form a scenario
// takes on the wire between an explorer and its workers. XML stays the
// user-facing format and AppendCanonical the only input to content
// hashes; a record is never hashed or stored.
//
// A record lists the fields in declaration order. An integer is a
// uvarint (argc: a zigzag varint), a string a uvarint length and its
// bytes, a flag one byte, 0 or 1:
//
//	record   := string name
//	            uvarint ntriggers, ntriggers × trigger
//	            uvarint nfuncs, nfuncs × function
//	trigger  := string id, string class, flag hasArgs, [args]
//	args     := string name, string text,
//	            uvarint nattrs, nattrs × (string key, string value)
//	            uvarint nchildren, nchildren × args
//	function := string name, varint argc, string return, string errno,
//	            uvarint nrefs, nrefs × (string ref, flag negate)
//
// Attribute keys are written strictly ascending, and an args tree is
// at most maxArgsDepth levels deep. Every record has one encoding: the
// decoder refuses anything AppendBinary would not have written (a
// non-minimal varint, a flag other than 0 or 1, unsorted keys, bytes
// after the record), so a record it accepts re-encodes byte for byte.

// maxArgsDepth bounds the nesting of a decoded args tree, so a hostile
// record cannot recurse the decoder without limit. Real trees are
// three levels deep (<args><frame><function>).
const maxArgsDepth = 32

// AppendBinary appends the scenario's binary record to b and returns
// the extended buffer.
func (s *Scenario) AppendBinary(b []byte) []byte {
	b = appendStr(b, s.Name)
	b = binary.AppendUvarint(b, uint64(len(s.Triggers)))
	for i := range s.Triggers {
		td := &s.Triggers[i]
		b = appendStr(b, td.ID)
		b = appendStr(b, td.Class)
		if td.Args == nil {
			b = append(b, 0)
			continue
		}
		b = append(b, 1)
		b = appendArgsRecord(b, td.Args)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Functions)))
	for i := range s.Functions {
		fa := &s.Functions[i]
		b = appendStr(b, fa.Name)
		b = binary.AppendVarint(b, int64(fa.Argc))
		b = appendStr(b, fa.Return)
		b = appendStr(b, fa.Errno)
		b = binary.AppendUvarint(b, uint64(len(fa.Refs)))
		for _, r := range fa.Refs {
			b = appendStr(b, r.Ref)
			b = append(b, flag(r.Negate))
		}
	}
	return b
}

func appendArgsRecord(b []byte, a *trigger.Args) []byte {
	b = appendStr(b, a.Name)
	b = appendStr(b, a.Text)
	b = binary.AppendUvarint(b, uint64(len(a.Attr)))
	if len(a.Attr) > 0 {
		var buf [4]string
		keys := buf[:0]
		for k := range a.Attr {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			b = appendStr(b, k)
			b = appendStr(b, a.Attr[k])
		}
	}
	b = binary.AppendUvarint(b, uint64(len(a.Children)))
	for _, c := range a.Children {
		b = appendArgsRecord(b, c)
	}
	return b
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func flag(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// DecodeBinary decodes the one record that fills rec. Its strings
// alias rec. The scenario comes back unsealed and unvalidated:
// compiling it validates it, as it does any hand-built literal.
func DecodeBinary(rec string) (*Scenario, error) {
	d := recDec{src: rec}
	s := &Scenario{Name: d.str()}
	if n := d.count(); n > 0 {
		s.Triggers = make([]TriggerDecl, n)
		for i := range s.Triggers {
			td := &s.Triggers[i]
			td.ID, td.Class = d.str(), d.str()
			if d.flag() {
				td.Args = d.args(1)
			}
		}
	}
	if n := d.count(); n > 0 {
		s.Functions = make([]FunctionAssoc, n)
		for i := range s.Functions {
			fa := &s.Functions[i]
			fa.Name = d.str()
			fa.Argc = int(d.varint())
			fa.Return, fa.Errno = d.str(), d.str()
			if n := d.count(); n > 0 {
				fa.Refs = make([]TriggerRef, n)
				for j := range fa.Refs {
					fa.Refs[j] = TriggerRef{Ref: d.str(), Negate: d.flag()}
				}
			}
		}
	}
	if d.err == nil && d.off != len(d.src) {
		d.fail("%d bytes after the record", len(d.src)-d.off)
	}
	if d.err != nil {
		return nil, d.err
	}
	return s, nil
}

// recDec is a cursor over one record; the first error sticks and every
// later read returns a zero value.
type recDec struct {
	src string
	off int
	err error
}

func (d *recDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("scenario: binary record at offset %d: "+format, append([]any{d.off}, args...)...)
	}
}

// uvarint reads a minimally encoded uvarint.
func (d *recDec) uvarint() uint64 {
	var v uint64
	for shift := uint(0); d.err == nil; shift += 7 {
		if d.off >= len(d.src) {
			d.fail("truncated")
			break
		}
		c := d.src[d.off]
		d.off++
		if shift == 63 && c > 1 {
			d.fail("varint overflows 64 bits")
			break
		}
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			if c == 0 && shift > 0 {
				d.fail("non-minimal varint")
			}
			return v
		}
	}
	return 0
}

func (d *recDec) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// count reads an element count. Every element takes at least one
// byte, so a count beyond the bytes left is refused before anything is
// allocated for it.
func (d *recDec) count() int {
	n := d.uvarint()
	if n > uint64(len(d.src)-d.off) {
		d.fail("count %d exceeds the %d bytes left", n, len(d.src)-d.off)
		return 0
	}
	return int(n)
}

func (d *recDec) str() string {
	n := d.count()
	if d.err != nil {
		return ""
	}
	s := d.src[d.off : d.off+n]
	d.off += n
	return s
}

func (d *recDec) flag() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.src) {
		d.fail("truncated")
		return false
	}
	c := d.src[d.off]
	if c > 1 {
		d.fail("flag byte %d", c)
		return false
	}
	d.off++
	return c == 1
}

// args reads an args tree whose root sits depth levels deep.
func (d *recDec) args(depth int) *trigger.Args {
	if depth > maxArgsDepth {
		d.fail("args nested deeper than %d", maxArgsDepth)
		return nil
	}
	a := &trigger.Args{Name: d.str(), Text: d.str()}
	if n := d.count(); n > 0 {
		a.Attr = make(map[string]string, n)
		prev := ""
		for i := 0; i < n && d.err == nil; i++ {
			k := d.str()
			if i > 0 && k <= prev {
				d.fail("attribute key %q not after %q", k, prev)
			}
			a.Attr[k] = d.str()
			prev = k
		}
	}
	if n := d.count(); n > 0 {
		a.Children = make([]*trigger.Args, n)
		for i := range a.Children {
			a.Children[i] = d.args(depth + 1)
		}
	}
	return a
}
