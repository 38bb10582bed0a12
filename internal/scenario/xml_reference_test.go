package scenario

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"lfi/internal/trigger"
)

// serializeReference is the straightforward fmt/bytes.Buffer form of
// the canonical serializer, kept as the oracle serialize must match
// byte for byte: every stored scenario's content hash, and with it
// every store key, is a hash of these bytes.
func (s *Scenario) serializeReference() []byte {
	var b bytes.Buffer
	b.WriteString("<scenario")
	if s.Name != "" {
		writeAttrReference(&b, "name", s.Name)
	}
	b.WriteString(">\n")
	for _, td := range s.Triggers {
		b.WriteString("  <trigger")
		writeAttrReference(&b, "id", td.ID)
		writeAttrReference(&b, "class", td.Class)
		if td.Args == nil {
			b.WriteString(" />\n")
			continue
		}
		b.WriteString(">\n")
		writeArgsReference(&b, td.Args, 4)
		b.WriteString("  </trigger>\n")
	}
	for _, fa := range s.Functions {
		b.WriteString("  <function")
		writeAttrReference(&b, "name", fa.Name)
		if fa.Argc > 0 {
			writeAttrReference(&b, "argc", strconv.Itoa(fa.Argc))
		}
		writeAttrReference(&b, "return", fa.Return)
		writeAttrReference(&b, "errno", fa.Errno)
		b.WriteString(">\n")
		for _, r := range fa.Refs {
			b.WriteString("    <reftrigger")
			writeAttrReference(&b, "ref", r.Ref)
			if r.Negate {
				writeAttrReference(&b, "negate", "true")
			}
			b.WriteString(" />\n")
		}
		b.WriteString("  </function>\n")
	}
	b.WriteString("</scenario>\n")
	return b.Bytes()
}

func writeAttrReference(b *bytes.Buffer, name, value string) {
	b.WriteByte(' ')
	b.WriteString(name)
	b.WriteString(`="`)
	for _, r := range value {
		switch r {
		case '&':
			b.WriteString("&amp;")
		case '<':
			b.WriteString("&lt;")
		case '>':
			b.WriteString("&gt;")
		case '"':
			b.WriteString("&quot;")
		case '\n':
			b.WriteString("&#xA;")
		case '\r':
			b.WriteString("&#xD;")
		case '\t':
			b.WriteString("&#x9;")
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
}

func writeArgsReference(b *bytes.Buffer, n *trigger.Args, indent int) {
	pad := strings.Repeat(" ", indent)
	fmt.Fprintf(b, "%s<%s", pad, n.Name)
	keys := make([]string, 0, len(n.Attr))
	for k := range n.Attr {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		writeAttrReference(b, k, n.Attr[k])
	}
	if len(n.Children) == 0 && n.Text == "" {
		b.WriteString(" />\n")
		return
	}
	b.WriteString(">")
	if n.Text != "" {
		xml.EscapeText(b, []byte(n.Text))
	}
	if len(n.Children) > 0 {
		b.WriteString("\n")
		for _, c := range n.Children {
			writeArgsReference(b, c, indent+2)
		}
		b.WriteString(pad)
	}
	fmt.Fprintf(b, "</%s>\n", n.Name)
}

// checkReference fails t unless serialize matches the oracle.
func checkReference(t *testing.T, s *Scenario) {
	t.Helper()
	if got, want := s.serialize(), s.serializeReference(); !bytes.Equal(got, want) {
		t.Fatalf("serialize differs from the reference:\ngot:\n%q\nwant:\n%q", got, want)
	}
}

// TestSerializeMatchesReference covers the escaping corners the fast
// paths skip: invalid UTF-8, control characters, non-ASCII text,
// multi-attribute nodes, deep trees and every escaped metacharacter.
func TestSerializeMatchesReference(t *testing.T) {
	for _, v := range []string{"", "plain", `a&<>"'b`, "tab\tnl\ncr\r", "\xff\xfe", "héllo", "\x01ctl", "]]>", " "} {
		s := &Scenario{
			Name: v,
			Triggers: []TriggerDecl{
				{ID: v, Class: "C"},
				{ID: "t", Class: v, Args: &trigger.Args{
					Name: "args",
					Attr: map[string]string{"b": v, "a": "1", "c": v + v},
					Text: v,
					Children: []*trigger.Args{
						{Name: "x", Text: v},
						{Name: "y", Attr: map[string]string{"k": v}},
						{Name: "z", Children: []*trigger.Args{{Name: "deep", Text: v, Children: []*trigger.Args{{Name: "deeper"}}}}},
					},
				}},
			},
			Functions: []FunctionAssoc{
				{Name: v, Argc: 3, Return: v, Errno: v, Refs: []TriggerRef{{Ref: v}, {Ref: "t", Negate: true}}},
				{Name: "read", Return: "-1"},
			},
		}
		checkReference(t, s)
		// With nothing to escape, the buffer never grows: one
		// allocation per serialization.
		if v == "plain" && len(s.serialize()) > s.size() {
			t.Errorf("size %d, serialized %d bytes", s.size(), len(s.serialize()))
		}
	}
	checkReference(t, &Scenario{})
}
