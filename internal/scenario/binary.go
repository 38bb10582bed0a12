package scenario

import (
	"encoding/binary"
	"fmt"
	"slices"

	"lfi/internal/binrec"
	"lfi/internal/trigger"
)

// This file is the binary record of a scenario: the form a scenario
// takes on the wire between an explorer and its workers. XML stays the
// user-facing format and AppendCanonical the only input to content
// hashes; a record is never hashed or stored.
//
// A record lists the fields in declaration order, in binrec's
// primitives (argc is the one zigzag varint):
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
// decoder refuses anything AppendBinary would not have written (what
// binrec.Reader refuses, unsorted keys, bytes after the record), so a
// record it accepts re-encodes byte for byte.

// maxArgsDepth bounds the nesting of a decoded args tree, so a hostile
// record cannot recurse the decoder without limit. Real trees are
// three levels deep (<args><frame><function>).
const maxArgsDepth = 32

// AppendBinary appends the scenario's binary record to b and returns
// the extended buffer.
func (s *Scenario) AppendBinary(b []byte) []byte {
	b = binrec.AppendString(b, s.Name)
	b = binary.AppendUvarint(b, uint64(len(s.Triggers)))
	for i := range s.Triggers {
		td := &s.Triggers[i]
		b = binrec.AppendString(b, td.ID)
		b = binrec.AppendString(b, td.Class)
		b = binrec.AppendFlag(b, td.Args != nil)
		if td.Args != nil {
			b = appendArgsRecord(b, td.Args)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(s.Functions)))
	for i := range s.Functions {
		fa := &s.Functions[i]
		b = binrec.AppendString(b, fa.Name)
		b = binary.AppendVarint(b, int64(fa.Argc))
		b = binrec.AppendString(b, fa.Return)
		b = binrec.AppendString(b, fa.Errno)
		b = binary.AppendUvarint(b, uint64(len(fa.Refs)))
		for _, r := range fa.Refs {
			b = binrec.AppendString(b, r.Ref)
			b = binrec.AppendFlag(b, r.Negate)
		}
	}
	return b
}

func appendArgsRecord(b []byte, a *trigger.Args) []byte {
	b = binrec.AppendString(b, a.Name)
	b = binrec.AppendString(b, a.Text)
	b = binary.AppendUvarint(b, uint64(len(a.Attr)))
	if len(a.Attr) > 0 {
		var buf [4]string
		keys := buf[:0]
		for k := range a.Attr {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			b = binrec.AppendString(b, k)
			b = binrec.AppendString(b, a.Attr[k])
		}
	}
	b = binary.AppendUvarint(b, uint64(len(a.Children)))
	for _, c := range a.Children {
		b = appendArgsRecord(b, c)
	}
	return b
}

// DecodeBinary decodes the one record that fills rec. Its strings
// alias rec. The scenario comes back unsealed and unvalidated:
// compiling it validates it, as it does any hand-built literal.
func DecodeBinary(rec string) (*Scenario, error) {
	r := binrec.NewReader(rec)
	s := &Scenario{Name: r.String()}
	if n := r.Count(); n > 0 {
		s.Triggers = make([]TriggerDecl, n)
		for i := range s.Triggers {
			td := &s.Triggers[i]
			td.ID, td.Class = r.String(), r.String()
			if r.Flag() {
				td.Args = decodeArgs(&r, 1)
			}
		}
	}
	if n := r.Count(); n > 0 {
		s.Functions = make([]FunctionAssoc, n)
		for i := range s.Functions {
			fa := &s.Functions[i]
			fa.Name = r.String()
			fa.Argc = int(r.Varint())
			fa.Return, fa.Errno = r.String(), r.String()
			if n := r.Count(); n > 0 {
				fa.Refs = make([]TriggerRef, n)
				for j := range fa.Refs {
					fa.Refs[j] = TriggerRef{Ref: r.String(), Negate: r.Flag()}
				}
			}
		}
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("scenario: binary record %w", err)
	}
	return s, nil
}

// decodeArgs reads an args tree whose root sits depth levels deep.
func decodeArgs(r *binrec.Reader[string], depth int) *trigger.Args {
	if depth > maxArgsDepth {
		r.Fail("args nested deeper than %d", maxArgsDepth)
		return nil
	}
	a := &trigger.Args{Name: r.String(), Text: r.String()}
	if n := r.Count(); n > 0 {
		a.Attr = make(map[string]string, n)
		prev := ""
		for i := 0; i < n && r.Err() == nil; i++ {
			k := r.String()
			if i > 0 && k <= prev {
				r.Fail("attribute key %q not after %q", k, prev)
			}
			a.Attr[k] = r.String()
			prev = k
		}
	}
	if n := r.Count(); n > 0 {
		a.Children = make([]*trigger.Args, n)
		for i := range a.Children {
			a.Children[i] = decodeArgs(r, depth+1)
		}
	}
	return a
}
