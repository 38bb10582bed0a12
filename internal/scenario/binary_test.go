package scenario

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"lfi/internal/trigger"
)

// binaryRoundTrip checks the record contract for one scenario: the
// record decodes to an equal scenario with the same canonical bytes,
// and the decoded scenario re-encodes to the same record.
func binaryRoundTrip(t *testing.T, s *Scenario) {
	t.Helper()
	rec := s.AppendBinary(nil)
	got, err := DecodeBinary(string(rec))
	if err != nil {
		t.Fatalf("decode: %v\nrecord %x", err, rec)
	}
	if !scenarioEqual(s, got) {
		t.Fatalf("record changed the scenario:\n%#v\nvs\n%#v", s, got)
	}
	if !bytes.Equal(got.AppendCanonical(nil), s.AppendCanonical(nil)) {
		t.Fatalf("canonical bytes differ after the record:\n%s\nvs\n%s", got.AppendCanonical(nil), s.AppendCanonical(nil))
	}
	if again := got.AppendBinary(nil); !bytes.Equal(again, rec) {
		t.Fatalf("re-encoded record differs:\n%x\nvs\n%x", again, rec)
	}
}

// TestBinaryRecordRoundTrip runs the record over the random scenarios
// of the XML property test, whose text may keep the whitespace XML
// trims, and over a parsed document (non-nil empty Attr maps).
func TestBinaryRecordRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(0xb1))
	for i := 0; i < 1000; i++ {
		s := randScenario(r)
		if len(s.Triggers) > 0 && s.Triggers[0].Args != nil {
			s.Triggers[0].Args.Text = " " + s.Triggers[0].Args.Text + "\n"
		}
		binaryRoundTrip(t, s)
	}
	p, err := ParseString(`<scenario name="p">
	  <trigger id="nth" class="CallCountTrigger"><args><n>3</n></args></trigger>
	  <function name="read" argc="3" return="-1" errno="EIO"><reftrigger ref="nth" negate="true" /></function>
	  <function name="close" return="unused" errno="unused"><reftrigger ref="nth" /></function>
	</scenario>`)
	if err != nil {
		t.Fatal(err)
	}
	binaryRoundTrip(t, p)
	binaryRoundTrip(t, &Scenario{})
}

// nested returns an args chain depth levels deep.
func nested(depth int) *trigger.Args {
	a := &trigger.Args{Name: "args"}
	for i := 1; i < depth; i++ {
		a = &trigger.Args{Name: "x", Children: []*trigger.Args{a}}
	}
	return a
}

// TestBinaryRecordRejects: every record AppendBinary cannot write is
// refused, hostile counts and nesting before anything is allocated or
// recursed for them.
func TestBinaryRecordRejects(t *testing.T) {
	withArgs := func(a *trigger.Args) string {
		return string((&Scenario{Triggers: []TriggerDecl{{ID: "t", Class: "C", Args: a}}}).AppendBinary(nil))
	}
	if _, err := DecodeBinary(withArgs(nested(maxArgsDepth))); err != nil {
		t.Fatalf("args %d deep refused: %v", maxArgsDepth, err)
	}
	// A two-key args node: swapping its keys unsorts them.
	sorted := withArgs(&trigger.Args{Name: "a", Attr: map[string]string{"k1": "v", "k2": "w"}})
	unsorted := strings.Replace(sorted, "\x02k1\x01v\x02k2\x01w", "\x02k2\x01w\x02k1\x01v", 1)
	dup := strings.Replace(sorted, "\x02k2", "\x02k1", 1)
	if unsorted == sorted || dup == sorted {
		t.Fatal("attribute layout changed; update the test")
	}
	huge := binary.AppendUvarint([]byte{0}, 1<<40) // name "", then 2^40 triggers
	for name, rec := range map[string]string{
		"unsorted keys":       unsorted,
		"duplicate key":       dup,
		"too deep":            withArgs(nested(maxArgsDepth + 1)),
		"count beyond bytes":  string(huge),
		"string beyond bytes": "\x05ab",
		"trailing bytes":      string((&Scenario{}).AppendBinary(nil)) + "\x00",
		"non-minimal varint":  "\x80\x00\x00\x00",
		"varint overflow":     "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02",
		"flag byte 2":         "\x00\x01\x01t\x01C\x02\x00",
		"truncated":           sorted[:len(sorted)-3],
		"empty":               "",
	} {
		if s, err := DecodeBinary(rec); err == nil {
			t.Errorf("%s: decoded %#v", name, s)
		}
	}
}

// FuzzScenarioRecord: the record decoder never panics, and any input it
// accepts re-encodes byte for byte (a record has one encoding).
func FuzzScenarioRecord(f *testing.F) {
	r := rand.New(rand.NewSource(0xf2))
	for i := 0; i < 8; i++ {
		f.Add(randScenario(r).AppendBinary(nil))
	}
	f.Add((&Scenario{Triggers: []TriggerDecl{{ID: "t", Class: "C", Args: nested(maxArgsDepth + 1)}}}).AppendBinary(nil))
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeBinary(string(data))
		if err != nil {
			return
		}
		if got := s.AppendBinary(nil); !bytes.Equal(got, data) {
			t.Fatalf("accepted record re-encodes differently:\n in %x\nout %x", data, got)
		}
	})
}
