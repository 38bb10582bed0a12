package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"lfi/internal/trigger"
)

// This file parses and serializes the XML surface syntax. Scenarios are
// both human- and machine-readable (§4.1); the analyzer emits them and
// testers edit them, so round-tripping must be lossless for the fields
// the language defines.

// Parse reads a scenario document. The root element may be <scenario>
// (with an optional name attribute); for compatibility with the paper's
// fragment style, a document consisting of bare <trigger>/<function>
// elements wrapped in any root is also accepted.
func Parse(r io.Reader) (*Scenario, error) {
	root, err := decodeTree(xml.NewDecoder(r))
	if err != nil {
		return nil, err
	}
	if root == nil {
		return nil, fmt.Errorf("scenario: empty document")
	}
	s := &Scenario{Name: root.Attr["name"]}
	for _, el := range root.Children {
		switch el.Name {
		case "trigger":
			td := TriggerDecl{ID: el.Attr["id"], Class: el.Attr["class"]}
			if args := el.Child("args"); args != nil {
				td.Args = args
			}
			s.Triggers = append(s.Triggers, td)
		case "function":
			fa := FunctionAssoc{
				Name:  el.Attr["name"],
				Errno: el.Attr["errno"],
			}
			// The paper uses both return= and retval= (compare §4.1
			// with the PBFT fragment in §7.1); accept either.
			fa.Return = el.Attr["return"]
			if fa.Return == "" {
				fa.Return = el.Attr["retval"]
			}
			if v := el.Attr["argc"]; v != "" {
				n, err := strconv.Atoi(v)
				if err != nil {
					return nil, fmt.Errorf("scenario: function %q: bad argc %q", fa.Name, v)
				}
				fa.Argc = n
			}
			for _, ref := range el.ChildrenNamed("reftrigger") {
				fa.Refs = append(fa.Refs, TriggerRef{
					Ref:    ref.Attr["ref"],
					Negate: ref.Attr["negate"] == "true",
				})
			}
			s.Functions = append(s.Functions, fa)
		}
	}
	s.seal()
	return s, nil
}

// ParseString is Parse over a string.
func ParseString(doc string) (*Scenario, error) {
	return Parse(strings.NewReader(doc))
}

// decodeTree reads one XML document into the generic Args tree that
// triggers consume (the xmlNodePtr analogue).
func decodeTree(dec *xml.Decoder) (*trigger.Args, error) {
	var stack []*trigger.Args
	var root *trigger.Args
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("scenario: %v", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &trigger.Args{Name: t.Name.Local, Attr: map[string]string{}}
			for _, a := range t.Attr {
				n.Attr[a.Name.Local] = a.Value
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("scenario: multiple root elements")
				}
				root = n
			} else {
				p := stack[len(stack)-1]
				p.Children = append(p.Children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("scenario: unbalanced end element")
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) > 0 {
				stack[len(stack)-1].Text += strings.TrimSpace(string(t))
			}
		}
	}
	return root, nil
}

// Serialize returns the scenario as an XML document with a <scenario>
// root. The output is byte-deterministic and parses back to an equal
// Scenario. Scenarios built by Build or Parse return their sealed
// canonical bytes without re-serializing; callers must not modify the
// returned slice.
func (s *Scenario) Serialize() []byte {
	if s.canon != nil {
		return s.canon
	}
	return s.serialize()
}

// ContentHash returns the hex of the first 8 bytes of the SHA-256 of
// the canonical serialized form — the scenario-identity half of every
// store key. Sealed scenarios answer from cache.
func (s *Scenario) ContentHash() string {
	if s.canonHash != "" {
		return s.canonHash
	}
	sum := sha256.Sum256(s.Serialize())
	return hex.EncodeToString(sum[:8])
}

// seal computes and caches the canonical form and content hash, once
// per built or parsed scenario. It must be called before the scenario
// is shared across goroutines and the scenario must not be mutated
// afterwards.
func (s *Scenario) seal() {
	s.canon = s.serialize()
	sum := sha256.Sum256(s.canon)
	s.canonHash = hex.EncodeToString(sum[:8])
}

// serialize materializes the canonical XML document into a buffer
// sized for the unescaped document.
func (s *Scenario) serialize() []byte {
	return s.AppendCanonical(make([]byte, 0, s.size()))
}

// AppendCanonical appends the canonical XML document to b and returns
// the extended buffer: the one serializer behind Serialize,
// ContentHash and so every store key, so its bytes must never change.
// It never reads the sealed cache, so a caller that derives keys from
// parameters can run it over a scratch scenario it refills in place.
func (s *Scenario) AppendCanonical(b []byte) []byte {
	b = append(b, "<scenario"...)
	if s.Name != "" {
		b = appendAttr(b, "name", s.Name)
	}
	b = append(b, ">\n"...)
	for _, td := range s.Triggers {
		b = append(b, "  <trigger"...)
		b = appendAttr(b, "id", td.ID)
		b = appendAttr(b, "class", td.Class)
		if td.Args == nil {
			b = append(b, " />\n"...)
			continue
		}
		b = append(b, ">\n"...)
		b = appendArgs(b, td.Args, 4)
		b = append(b, "  </trigger>\n"...)
	}
	for _, fa := range s.Functions {
		b = append(b, "  <function"...)
		b = appendAttr(b, "name", fa.Name)
		if fa.Argc > 0 {
			b = append(b, ` argc="`...)
			b = strconv.AppendInt(b, int64(fa.Argc), 10)
			b = append(b, '"')
		}
		b = appendAttr(b, "return", fa.Return)
		b = appendAttr(b, "errno", fa.Errno)
		b = append(b, ">\n"...)
		for _, r := range fa.Refs {
			b = append(b, "    <reftrigger"...)
			b = appendAttr(b, "ref", r.Ref)
			if r.Negate {
				b = append(b, ` negate="true"`...)
			}
			b = append(b, " />\n"...)
		}
		b = append(b, "  </function>\n"...)
	}
	return append(b, "</scenario>\n"...)
}

// size is the length of the serialized document when nothing in it
// needs escaping (argc counted at its widest).
func (s *Scenario) size() int {
	n := len("<scenario>\n</scenario>\n")
	if s.Name != "" {
		n += attrSize("name", s.Name)
	}
	for _, td := range s.Triggers {
		n += len("  <trigger />\n") + attrSize("id", td.ID) + attrSize("class", td.Class)
		if td.Args != nil {
			n += len("  </trigger>\n") - 2 + argsSize(td.Args, 4)
		}
	}
	for _, fa := range s.Functions {
		n += len("  <function>\n  </function>\n") + attrSize("name", fa.Name) +
			attrSize("return", fa.Return) + attrSize("errno", fa.Errno)
		if fa.Argc > 0 {
			n += attrSize("argc", "-9223372036854775808")
		}
		for _, r := range fa.Refs {
			n += len("    <reftrigger />\n") + attrSize("ref", r.Ref)
			if r.Negate {
				n += attrSize("negate", "true")
			}
		}
	}
	return n
}

func attrSize(name, value string) int { return len(` ="`) + len(name) + len(value) + 1 }

func argsSize(n *trigger.Args, indent int) int {
	size := indent + len("<") + len(n.Name) + len(">\n")
	for k, v := range n.Attr {
		size += attrSize(k, v)
	}
	if len(n.Children) == 0 && n.Text == "" {
		return size + len(" />\n") - len(">\n")
	}
	size += len(n.Text) + len("</>") + len(n.Name)
	if len(n.Children) > 0 {
		size += len("\n") + indent
		for _, c := range n.Children {
			size += argsSize(c, indent+2)
		}
	}
	return size
}

// appendAttr appends one attribute with XML escaping. Newlines,
// carriage returns and tabs must be written as character references —
// a parser normalizes the literal characters to spaces inside
// attribute values.
func appendAttr(b []byte, name, value string) []byte {
	b = append(b, ' ')
	b = append(b, name...)
	b = append(b, `="`...)
	for _, r := range value {
		switch r {
		case '&':
			b = append(b, "&amp;"...)
		case '<':
			b = append(b, "&lt;"...)
		case '>':
			b = append(b, "&gt;"...)
		case '"':
			b = append(b, "&quot;"...)
		case '\n':
			b = append(b, "&#xA;"...)
		case '\r':
			b = append(b, "&#xD;"...)
		case '\t':
			b = append(b, "&#x9;"...)
		default:
			b = utf8.AppendRune(b, r)
		}
	}
	return append(b, '"')
}

// appendText appends element text: printable ASCII other than XML
// metacharacters is copied as is, anything else goes through
// xml.EscapeText.
func appendText(b []byte, text string) []byte {
	for i := 0; i < len(text); i++ {
		if c := text[i]; c < ' ' || c >= utf8.RuneSelf || c == '&' || c == '<' || c == '>' || c == '"' || c == '\'' {
			w := bytes.NewBuffer(b)
			xml.EscapeText(w, []byte(text))
			return w.Bytes()
		}
	}
	return append(b, text...)
}

func appendArgs(b []byte, n *trigger.Args, indent int) []byte {
	b = appendPad(b, indent)
	b = append(b, '<')
	b = append(b, n.Name...)
	if len(n.Attr) > 0 {
		keys := make([]string, 0, len(n.Attr))
		for k := range n.Attr {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b = appendAttr(b, k, n.Attr[k])
		}
	}
	if len(n.Children) == 0 && n.Text == "" {
		return append(b, " />\n"...)
	}
	b = append(b, '>')
	b = appendText(b, n.Text)
	if len(n.Children) > 0 {
		b = append(b, '\n')
		for _, c := range n.Children {
			b = appendArgs(b, c, indent+2)
		}
		b = appendPad(b, indent)
	}
	b = append(b, "</"...)
	b = append(b, n.Name...)
	return append(b, ">\n"...)
}

func appendPad(b []byte, indent int) []byte {
	for ; indent > 0; indent-- {
		b = append(b, ' ')
	}
	return b
}
