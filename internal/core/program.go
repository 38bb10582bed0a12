package core

import (
	"lfi/internal/errno"
	"lfi/internal/interpose"
	"lfi/internal/scenario"
	"lfi/internal/trigger"
)

// Program is the immutable compiled form of a scenario: the validated
// trigger declarations, the FuncID-indexed entry table, and the
// touched-function bitset. A Program lives in its scenario's
// write-once slot (scenario.Scenario.Compiled) and is shared by every
// Runtime that runs that scenario — concurrently and across runs — so
// repeated runs of one *Scenario compile it once, and the Program is
// collected with the scenario. All per-run state (trigger instances,
// log, rng, counters) lives in the Runtime overlay.
type Program struct {
	decls   []declInfo
	declIdx map[string]int
	entries [][]progEntry // indexed by interpose.FuncID
	touched []uint64      // bitset over FuncIDs with at least one entry
}

// declInfo is one compiled trigger declaration.
type declInfo struct {
	id    string
	class string
	args  *trigger.Args
}

// progRef references a declared trigger by decl index.
type progRef struct {
	decl   int
	negate bool
}

// progEntry is one compiled <function> association.
type progEntry struct {
	refs          []progRef
	ids           []string // referenced trigger ids, precomputed at compile time
	observational bool
	retval        int64
	e             errno.Errno
}

// Compile validates and compiles a scenario, memoized on the scenario
// itself: the first successful compile of a *Scenario stores its
// Program in the scenario's write-once slot, and later compiles of the
// same *Scenario return it. There is no global cache, so a scenario
// that runs once (every test the explorer derives) costs one compile
// and pins nothing beyond its own lifetime. Scenarios must not be
// mutated after first use, which the toolchain already guarantees
// (builders and parsers hand out fresh values). A scenario that fails
// to compile is not memoized.
func Compile(s *scenario.Scenario) (*Program, error) {
	if p, ok := s.Compiled().(*Program); ok {
		return p, nil
	}
	p, err := compile(s)
	if err != nil {
		return nil, err
	}
	return s.SetCompiled(p).(*Program), nil
}

func compile(s *scenario.Scenario) (*Program, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	p := &Program{declIdx: make(map[string]int, len(s.Triggers))}
	for i := range s.Triggers {
		td := &s.Triggers[i]
		p.declIdx[td.ID] = len(p.decls)
		p.decls = append(p.decls, declInfo{id: td.ID, class: td.Class, args: td.Args})
	}
	for i := range s.Functions {
		fa := &s.Functions[i]
		en := progEntry{observational: fa.Observational()}
		if !en.observational {
			rv, e, err := fa.RetvalErrno()
			if err != nil {
				return nil, err
			}
			en.retval, en.e = rv, e
		}
		for _, ref := range fa.Refs {
			en.refs = append(en.refs, progRef{decl: p.declIdx[ref.Ref], negate: ref.Negate})
			en.ids = append(en.ids, ref.Ref)
		}
		id := interpose.Intern(fa.Name)
		if n := int(id) + 1; n > len(p.entries) {
			grown := make([][]progEntry, n)
			copy(grown, p.entries)
			p.entries = grown
			bits := make([]uint64, (n+63)/64)
			copy(bits, p.touched)
			p.touched = bits
		}
		p.entries[id] = append(p.entries[id], en)
		p.touched[int(id)/64] |= 1 << (uint(id) % 64)
	}
	return p, nil
}
