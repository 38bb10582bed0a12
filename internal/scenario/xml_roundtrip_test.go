package scenario

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"

	"lfi/internal/trigger"
)

// This file checks the lossless-round-trip contract of Serialize: for
// any scenario the language can express — text-only <args> payloads,
// XML metacharacters in names and values, multi-attribute args nodes,
// negated reftriggers — Parse(Serialize(s)) must equal s, and Serialize
// must be byte-deterministic.

// scenarioEqual compares scenarios up to the one representation detail
// Parse cannot preserve: a nil Attr map on a built Args tree comes back
// as an empty (non-nil) map.
func scenarioEqual(a, b *Scenario) bool {
	if a.Name != b.Name || len(a.Triggers) != len(b.Triggers) || len(a.Functions) != len(b.Functions) {
		return false
	}
	for i := range a.Triggers {
		ta, tb := a.Triggers[i], b.Triggers[i]
		if ta.ID != tb.ID || ta.Class != tb.Class || !argsEqual(ta.Args, tb.Args) {
			return false
		}
	}
	for i := range a.Functions {
		fa, fb := a.Functions[i], b.Functions[i]
		if fa.Name != fb.Name || fa.Argc != fb.Argc || fa.Return != fb.Return || fa.Errno != fb.Errno {
			return false
		}
		if len(fa.Refs) != len(fb.Refs) {
			return false
		}
		for j := range fa.Refs {
			if fa.Refs[j] != fb.Refs[j] {
				return false
			}
		}
	}
	return true
}

func argsEqual(a, b *trigger.Args) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Name != b.Name || a.Text != b.Text || len(a.Attr) != len(b.Attr) || len(a.Children) != len(b.Children) {
		return false
	}
	for k, v := range a.Attr {
		bv, ok := b.Attr[k]
		if !ok || bv != v {
			return false
		}
	}
	for i := range a.Children {
		if !argsEqual(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

func roundTrip(t *testing.T, s *Scenario) {
	t.Helper()
	doc := s.Serialize()
	s2, err := Parse(bytes.NewReader(doc))
	if err != nil {
		t.Fatalf("re-parse: %v\ndoc:\n%s", err, doc)
	}
	if !scenarioEqual(s, s2) {
		t.Fatalf("round trip changed scenario:\n%#v\nvs\n%#v\ndoc:\n%s", s, s2, doc)
	}
}

// TestRoundTripTextOnlyArgs is the regression test for the dropped
// text-only <args> payload: a trigger whose args tree has Text but no
// children used to serialize as a self-closed <trigger />.
func TestRoundTripTextOnlyArgs(t *testing.T) {
	s := &Scenario{
		Name: "text-args",
		Triggers: []TriggerDecl{{
			ID: "t", Class: "SingletonTrigger",
			Args: &trigger.Args{Name: "args", Text: "payload"},
		}},
		Functions: []FunctionAssoc{{
			Name: "read", Return: "-1", Errno: "EIO",
			Refs: []TriggerRef{{Ref: "t"}},
		}},
	}
	roundTrip(t, s)
}

// TestRoundTripAttrsOnlyArgs covers the sibling case: an args tree that
// carries only attributes, no children and no text.
func TestRoundTripAttrsOnlyArgs(t *testing.T) {
	s := &Scenario{
		Triggers: []TriggerDecl{{
			ID: "t", Class: "SingletonTrigger",
			Args: &trigger.Args{
				Name: "args",
				Attr: map[string]string{"mode": "strict", "weight": "2"},
			},
		}},
	}
	roundTrip(t, s)
}

// TestRoundTripSpecialCharacters exercises XML metacharacters, quotes
// and whitespace escapes in attribute values and text payloads.
func TestRoundTripSpecialCharacters(t *testing.T) {
	nasty := []string{
		`a&b`, `a<b>c`, `"quoted"`, `it's`, "tab\there", "line\nbreak",
		`&amp;`, `]]>`, `a="b"`, "mix<&>\"'\n\tend", "später-日本語",
	}
	for i, v := range nasty {
		s := &Scenario{
			Name: "nasty-" + v,
			Triggers: []TriggerDecl{{
				ID: "t", Class: "SingletonTrigger",
				Args: &trigger.Args{
					Name: "args",
					Attr: map[string]string{"value": v},
					Children: []*trigger.Args{
						{Name: "payload", Text: v},
					},
				},
			}},
			Functions: []FunctionAssoc{{
				Name: "fn" + v, Return: v, Errno: v,
				Refs: []TriggerRef{{Ref: "t", Negate: i%2 == 0}},
			}},
		}
		roundTrip(t, s)
	}
}

// TestSerializeDeterministic asserts byte-identical output across many
// serializations of a scenario whose args node has enough attributes to
// make map-iteration order visible.
func TestSerializeDeterministic(t *testing.T) {
	attrs := map[string]string{}
	for i := 0; i < 12; i++ {
		attrs[fmt.Sprintf("k%02d", i)] = fmt.Sprintf("v%d", i)
	}
	s := &Scenario{
		Triggers: []TriggerDecl{{
			ID: "t", Class: "SingletonTrigger",
			Args: &trigger.Args{Name: "args", Attr: attrs},
		}},
	}
	first := s.Serialize()
	for i := 0; i < 50; i++ {
		if got := s.Serialize(); !bytes.Equal(first, got) {
			t.Fatalf("serialization %d differs:\n%s\nvs\n%s", i, first, got)
		}
	}
}

// --- randomized property test ----------------------------------------------

const nameAlphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

// valueAlphabet includes every XML metacharacter plus whitespace that
// attribute-value normalization would mangle without proper escaping.
var valueAlphabet = []rune("abc123&<>\"'\n\t;=ü∆ ")

func randName(r *rand.Rand) string {
	n := 1 + r.Intn(8)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(nameAlphabet[r.Intn(len(nameAlphabet))])
	}
	return b.String()
}

func randValue(r *rand.Rand) string {
	n := r.Intn(12)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteRune(valueAlphabet[r.Intn(len(valueAlphabet))])
	}
	return b.String()
}

// randText is randValue restricted to trim-stable strings: the parser
// trims leading/trailing whitespace around element text, which is the
// documented (and paper-compatible) behaviour, not a round-trip defect.
func randText(r *rand.Rand) string {
	for {
		s := strings.TrimSpace(randValue(r))
		if s == "" && r.Intn(2) == 0 {
			continue
		}
		return s
	}
}

func randArgs(r *rand.Rand, depth int) *trigger.Args {
	a := &trigger.Args{Name: "args"}
	if depth > 0 {
		a.Name = randName(r)
	}
	for i := r.Intn(3); i > 0; i-- {
		if a.Attr == nil {
			a.Attr = map[string]string{}
		}
		a.Attr[randName(r)] = randValue(r)
	}
	if r.Intn(2) == 0 {
		a.Text = randText(r)
	}
	if depth < 2 {
		for i := r.Intn(3); i > 0; i-- {
			a.Children = append(a.Children, randArgs(r, depth+1))
		}
	}
	if a.Text == "" && len(a.Attr) == 0 && len(a.Children) == 0 && r.Intn(2) == 0 {
		a.Text = randText(r)
	}
	return a
}

func randScenario(r *rand.Rand) *Scenario {
	s := &Scenario{}
	if r.Intn(4) > 0 {
		s.Name = randValue(r)
	}
	nt := 1 + r.Intn(3)
	ids := make([]string, 0, nt)
	for i := 0; i < nt; i++ {
		id := fmt.Sprintf("%s%d", randName(r), i)
		ids = append(ids, id)
		td := TriggerDecl{ID: id, Class: randName(r)}
		if r.Intn(3) > 0 {
			td.Args = randArgs(r, 0)
		}
		s.Triggers = append(s.Triggers, td)
	}
	for i := r.Intn(4); i > 0; i-- {
		fa := FunctionAssoc{
			Name:   randName(r),
			Return: randValue(r),
			Errno:  randValue(r),
		}
		if r.Intn(2) == 0 {
			fa.Argc = 1 + r.Intn(5)
		}
		for j := 1 + r.Intn(3); j > 0; j-- {
			fa.Refs = append(fa.Refs, TriggerRef{
				Ref:    ids[r.Intn(len(ids))],
				Negate: r.Intn(3) == 0,
			})
		}
		s.Functions = append(s.Functions, fa)
	}
	return s
}

// TestRoundTripProperty generates a few thousand random scenarios over
// the nasty-character alphabet and asserts the round trip is lossless
// and byte-deterministic for each.
func TestRoundTripProperty(t *testing.T) {
	iters := 3000
	if testing.Short() {
		iters = 300
	}
	r := rand.New(rand.NewSource(0x1f1))
	for i := 0; i < iters; i++ {
		s := randScenario(r)
		roundTrip(t, s)
		if !bytes.Equal(s.Serialize(), s.Serialize()) {
			t.Fatalf("iteration %d: nondeterministic serialization", i)
		}
	}
}

// FuzzRoundTrip drives the same property from the native fuzzer, with
// the interesting corners as the seed corpus. Every input, round-trippable
// or not, must also serialize exactly as the reference serializer does,
// and so must the document Parse reads back.
func FuzzRoundTrip(f *testing.F) {
	f.Add("name", "id", "Class", "key", `a&<>"value`, "text\nline", int64(-1), true)
	f.Add("", "t", "SingletonTrigger", "probability", "0.5", "", int64(0), false)
	f.Add("x&y", "a", "C", "k", "\ttab\t", "]]>", int64(7), true)
	f.Add("\xffn", "i\x01", "C\u00e9", "k", "v\xfe", "t\x00x", int64(3), false)
	f.Fuzz(func(t *testing.T, name, id, class, key, val, text string, ret int64, negate bool) {
		checkReference(t, fuzzScenario(name, id, class, key, val, text, ret, negate))
		if strings.ContainsAny(id+class, "<>&\"'/= \n\r\t") || id == "" || class == "" {
			t.Skip() // ids/classes are serialized as attribute values; junk ones are tested elsewhere
		}
		if !isXMLName(key) {
			t.Skip() // only key becomes an attribute *name*, which XML constrains
		}
		if strings.TrimSpace(text) != text {
			t.Skip() // element text is documented as whitespace-trimmed
		}
		if !utf8ValidXML(name) || !utf8ValidXML(val) || !utf8ValidXML(text) ||
			!utf8ValidXML(id) || !utf8ValidXML(class) || !utf8ValidXML(key) {
			t.Skip()
		}
		s := fuzzScenario(name, id, class, key, val, text, ret, negate)
		roundTrip(t, s)
		p, err := Parse(bytes.NewReader(s.Serialize()))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := p.Serialize(), p.serializeReference(); !bytes.Equal(got, want) {
			t.Fatalf("parsed document serializes differently from the reference:\ngot:\n%q\nwant:\n%q", got, want)
		}
	})
}

func fuzzScenario(name, id, class, key, val, text string, ret int64, negate bool) *Scenario {
	return &Scenario{
		Name: name,
		Triggers: []TriggerDecl{{
			ID: id, Class: class,
			Args: &trigger.Args{
				Name: "args",
				Attr: map[string]string{key: val},
				Text: text,
			},
		}},
		Functions: []FunctionAssoc{{
			Name:   "read",
			Return: fmt.Sprint(ret),
			Errno:  "EIO",
			Refs:   []TriggerRef{{Ref: id, Negate: negate}},
		}},
	}
}

// TestValidateRejectsUnserializableArgNames pins the library-side
// enforcement behind the fuzzer's skip guard: the fuzzer found that a
// digit-leading attribute key like "0" (or a non-ASCII letter whose
// XML name classification differs between Unicode tables) serializes
// to a document no parser reads back, so Validate — and therefore
// Builder.Build — must reject such names up front. The crashing
// inputs are kept in testdata/fuzz as regression corpus.
func TestValidateRejectsUnserializableArgNames(t *testing.T) {
	for _, key := range []string{"0", "ˌ", "a b", "-x", ""} {
		s := &Scenario{
			Triggers: []TriggerDecl{{
				ID: "t", Class: "SingletonTrigger",
				Args: &trigger.Args{Name: "args", Attr: map[string]string{key: "v"}},
			}},
		}
		if err := s.Validate(); err == nil {
			t.Errorf("attr name %q accepted by Validate", key)
		}
		b := NewBuilder("n")
		b.Trigger("t", "SingletonTrigger", IntArgs(key, 1))
		b.Observe("read", "t")
		if _, err := b.Build(); err == nil {
			t.Errorf("Builder accepted arg name %q", key)
		}
	}
	// Child element names are checked too.
	s := &Scenario{
		Triggers: []TriggerDecl{{
			ID: "t", Class: "SingletonTrigger",
			Args: &trigger.Args{Name: "args", Children: []*trigger.Args{{Name: "1st", Text: "x"}}},
		}},
	}
	if err := s.Validate(); err == nil {
		t.Error("invalid child element name accepted")
	}
}

// utf8ValidXML reports whether s consists of characters XML 1.0 can
// carry at all (the fuzzer will happily produce control bytes and
// invalid UTF-8, which no escaping scheme can round-trip).
func utf8ValidXML(s string) bool {
	if !utf8.ValidString(s) {
		return false
	}
	for _, r := range s {
		switch {
		case r == '\t' || r == '\n' || r == '\r':
		case r < 0x20:
			return false
		case r >= 0xD800 && r <= 0xDFFF:
			return false
		case r == 0xFFFE || r == 0xFFFF:
			return false
		}
	}
	return true
}
