// Package scenario implements LFI's XML-based fault injection language
// (§4 of the paper).
//
// A scenario has two constructs: trigger declarations, which make a
// trigger class known to LFI and create a named, optionally parametrized
// instance; and function associations, which link trigger instances to
// an intercepted library function together with the fault to inject
// (return value and errno side effect).
//
// Composition follows §4.2: all <reftrigger> elements inside one
// <function> form a conjunction; repeating <function> elements for the
// same function name forms a disjunction; a reftrigger may carry
// negate="true" to invert one conjunct.
//
// Associations whose return or errno attribute is "unused" never inject;
// they exist so stateful triggers observe calls (e.g. a WithMutex
// instance watching pthread_mutex_lock/unlock).
package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"lfi/internal/errno"
	"lfi/internal/trigger"
)

// Unused is the attribute value marking observation-only associations.
const Unused = "unused"

// TriggerDecl declares a named trigger instance of a registered class,
// with an optional <args> parameter tree passed to the trigger's Init.
type TriggerDecl struct {
	ID    string
	Class string
	Args  *trigger.Args
}

// TriggerRef references a declared trigger from a function association.
type TriggerRef struct {
	Ref    string
	Negate bool
}

// FunctionAssoc associates trigger instances (a conjunction) with one
// intercepted function and the fault to inject when they all fire.
type FunctionAssoc struct {
	Name   string
	Argc   int
	Return string // decimal/hex value, or Unused
	Errno  string // symbolic errno name, or Unused
	Refs   []TriggerRef
}

// Observational reports whether this association can ever inject.
func (f *FunctionAssoc) Observational() bool {
	return f.Return == Unused || f.Return == ""
}

// RetvalErrno decodes the injected fault. It must not be called on
// observational associations.
func (f *FunctionAssoc) RetvalErrno() (int64, errno.Errno, error) {
	rv, err := strconv.ParseInt(strings.TrimSpace(f.Return), 0, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("scenario: function %q: bad return %q", f.Name, f.Return)
	}
	if f.Errno == "" || f.Errno == Unused {
		return rv, errno.OK, nil
	}
	e, ok := errno.Parse(f.Errno)
	if !ok {
		return 0, 0, fmt.Errorf("scenario: function %q: unknown errno %q", f.Name, f.Errno)
	}
	return rv, e, nil
}

// Scenario is a complete fault injection scenario.
//
// The canon/canonHash fields cache the canonical serialized form and
// its content hash, the scenario half of every store key. They are
// written exactly once, by seal(), before the scenario escapes Build or
// Parse — after that the scenario is treated as immutable, so
// concurrent readers (wire encoders on parallel fleet backends) need no
// synchronization. Sealing is where a built scenario is serialized and
// hashed; a caller that needs keys before it builds anything (the
// explorer) runs AppendCanonical over a scratch scenario it refills.
// Hand-constructed literals skip the cache and recompute per call;
// the explorer launches such literals, unsealed, so a test it runs is
// validated when it compiles. A scenario that ships over the wire
// travels as a binary record (AppendBinary), not as XML, and arrives
// unsealed too.
//
// compiled is a write-once slot for the runtime's compiled form of the
// scenario (see Compiled), so every run of one *Scenario compiles it
// once and the compiled form is collected with the scenario. It is an
// atomic.Value rather than an atomic.Pointer because Build returns a
// copy of the builder's scenario, and vet's copylocks rejects copying
// an atomic.Pointer; the builder's own scenario is never compiled, so
// the copy starts empty.
type Scenario struct {
	Name      string
	Triggers  []TriggerDecl
	Functions []FunctionAssoc

	canon     []byte
	canonHash string
	// valid is set by Build, which validated the scenario before
	// sealing it; Validate returns at once for such a scenario.
	valid    bool
	compiled atomic.Value
}

// Compiled returns the compiled form the first SetCompiled stored, or
// nil if the scenario has not been compiled.
func (s *Scenario) Compiled() any { return s.compiled.Load() }

// SetCompiled stores v as the scenario's compiled form unless one is
// already stored, and returns the one stored: concurrent first
// compiles agree on a single winner. v must be a non-nil pointer of
// the same type on every call; the scenario must not be mutated once
// it is compiled.
func (s *Scenario) SetCompiled(v any) any {
	if s.compiled.CompareAndSwap(nil, v) {
		return v
	}
	return s.compiled.Load()
}

// FindTrigger returns the declaration with the given id, or nil.
func (s *Scenario) FindTrigger(id string) *TriggerDecl {
	for i := range s.Triggers {
		if s.Triggers[i].ID == id {
			return &s.Triggers[i]
		}
	}
	return nil
}

// isXMLName reports whether s can serve as an XML element or attribute
// name in a serialized scenario: an ASCII name-start character (letter
// or '_') followed by ASCII name characters, with ':' excluded because
// XML parsers treat it as a namespace separator and rewrite the name.
// Serialize writes Args names and attribute keys verbatim, so a name
// outside this grammar (a digit-leading key like "0", or "A:0", both
// found by FuzzRoundTrip) would produce a document that does not read
// back — Validate rejects it up front instead.
func isXMLName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		nameStart := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if i == 0 && !nameStart {
			return false
		}
		if !nameStart && r != '-' && r != '.' && !(r >= '0' && r <= '9') {
			return false
		}
	}
	return true
}

// validateArgs walks a trigger's parameter tree checking every element
// name and attribute key is serializable.
func validateArgs(id string, a *trigger.Args) error {
	if a == nil {
		return nil
	}
	if !isXMLName(a.Name) {
		return fmt.Errorf("scenario: trigger %q: args element name %q is not a valid XML name", id, a.Name)
	}
	for k := range a.Attr {
		if !isXMLName(k) {
			return fmt.Errorf("scenario: trigger %q: args attribute name %q is not a valid XML name", id, k)
		}
	}
	for _, c := range a.Children {
		if err := validateArgs(id, c); err != nil {
			return err
		}
	}
	return nil
}

// Validate checks referential integrity and fault encodings: every
// reftrigger resolves, trigger ids are unique, trigger classes exist in
// the registry, every args tree is serializable, and every injecting
// association has a decodable fault. A scenario Build returned passed
// these checks before it was sealed, and is immutable since, so it is
// not checked again; parsed and hand-built ones are.
func (s *Scenario) Validate() error {
	if s.valid {
		return nil
	}
	seen := make(map[string]bool, len(s.Triggers))
	for _, td := range s.Triggers {
		if td.ID == "" {
			return fmt.Errorf("scenario: trigger with empty id")
		}
		if seen[td.ID] {
			return fmt.Errorf("scenario: duplicate trigger id %q", td.ID)
		}
		seen[td.ID] = true
		if err := checkClass(td.Class); err != nil {
			return err
		}
		if err := validateArgs(td.ID, td.Args); err != nil {
			return err
		}
	}
	for i := range s.Functions {
		fa := &s.Functions[i]
		if fa.Name == "" {
			return fmt.Errorf("scenario: function association with empty name")
		}
		if len(fa.Refs) == 0 {
			return fmt.Errorf("scenario: function %q has no reftrigger", fa.Name)
		}
		for _, r := range fa.Refs {
			if !seen[r.Ref] {
				return fmt.Errorf("scenario: function %q references unknown trigger %q", fa.Name, r.Ref)
			}
		}
		if !fa.Observational() {
			if _, _, err := fa.RetvalErrno(); err != nil {
				return err
			}
		}
	}
	return nil
}

// classes is the set of trigger classes checkClass has found in the
// registry. The registry only grows, so a class found once stays valid.
var classes struct {
	sync.RWMutex
	known map[string]bool
}

// checkClass reports whether a trigger class is registered. The first
// check of a class instantiates it through trigger.New; later ones are
// one lookup in classes, so validating a scenario builds no trigger.
func checkClass(class string) error {
	classes.RLock()
	known := classes.known[class]
	classes.RUnlock()
	if known {
		return nil
	}
	if _, err := trigger.New(class); err != nil {
		return err
	}
	classes.Lock()
	defer classes.Unlock()
	if classes.known == nil {
		classes.known = make(map[string]bool)
	}
	classes.known[class] = true
	return nil
}

// --- builder ----------------------------------------------------------------

// Builder assembles scenarios programmatically; the call-site analyzer
// and tests use it instead of string-pasting XML.
type Builder struct {
	s Scenario
}

// NewBuilder starts a scenario with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{s: Scenario{Name: name}}
}

// Trigger declares a trigger instance and returns its id for chaining.
func (b *Builder) Trigger(id, class string, args *trigger.Args) string {
	b.s.Triggers = append(b.s.Triggers, TriggerDecl{ID: id, Class: class, Args: args})
	return id
}

// Inject associates refs (a conjunction) with fn and the fault (retval, e).
func (b *Builder) Inject(fn string, argc int, retval int64, e errno.Errno, refs ...string) *Builder {
	fa := FunctionAssoc{
		Name:   fn,
		Argc:   argc,
		Return: strconv.FormatInt(retval, 10),
		Errno:  e.String(),
	}
	for _, r := range refs {
		fa.Refs = append(fa.Refs, TriggerRef{Ref: r})
	}
	b.s.Functions = append(b.s.Functions, fa)
	return b
}

// Observe associates refs with fn without ever injecting, so stateful
// triggers can watch the calls.
func (b *Builder) Observe(fn string, refs ...string) *Builder {
	fa := FunctionAssoc{Name: fn, Return: Unused, Errno: Unused}
	for _, r := range refs {
		fa.Refs = append(fa.Refs, TriggerRef{Ref: r})
	}
	b.s.Functions = append(b.s.Functions, fa)
	return b
}

// Build validates, seals (caching the canonical form and content
// hash), and returns the scenario.
func (b *Builder) Build() (*Scenario, error) {
	s := b.s
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s.seal()
	s.valid = true
	return &s, nil
}

// IntArgs builds a one-level <args> tree from key/value pairs, a
// convenience for parametrized triggers. Values print as fmt.Sprint
// would; strings and the integer kinds skip fmt.
func IntArgs(kv ...any) *trigger.Args {
	a := &trigger.Args{Name: "args"}
	for i := 0; i+1 < len(kv); i += 2 {
		var text string
		switch v := kv[i+1].(type) {
		case string:
			text = v
		case int:
			text = strconv.Itoa(v)
		case int64:
			text = strconv.FormatInt(v, 10)
		case uint64:
			text = strconv.FormatUint(v, 10)
		default:
			text = fmt.Sprint(v)
		}
		a.Children = append(a.Children, &trigger.Args{Name: kv[i].(string), Text: text})
	}
	return a
}

// BurstArgs builds the <from>/<to> argument tree of a CallCountTrigger
// occurrence window — the burst form ("inject on calls from..to") used
// by the DoS study and by the explorer's window mutants.
func BurstArgs(from, to uint64) *trigger.Args {
	return &trigger.Args{Name: "args", Children: []*trigger.Args{
		{Name: "from", Text: strconv.FormatUint(from, 10)},
		{Name: "to", Text: strconv.FormatUint(to, 10)},
	}}
}
