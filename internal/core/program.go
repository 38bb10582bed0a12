package core

import (
	"math/bits"

	"lfi/internal/errno"
	"lfi/internal/interpose"
	"lfi/internal/scenario"
	"lfi/internal/trigger"
)

// Program is the immutable compiled form of a scenario: the validated
// trigger declarations, the entry table of the functions the scenario
// touches, and the touched-function bitset. A Program lives in its
// scenario's write-once slot (scenario.Scenario.Compiled) and is shared
// by every Runtime that runs that scenario — concurrently and across
// runs — so repeated runs of one *Scenario compile it once, and the
// Program is collected with the scenario. All per-run state (trigger
// instances, log, rng, counters) lives in the Runtime overlay.
type Program struct {
	decls   []declInfo
	entries [][]progEntry // one group per touched FuncID, in FuncID order
	touched []uint64      // bitset over FuncIDs with at least one entry
}

// group returns the entries of a touched function: its rank among the
// touched FuncIDs indexes entries, so the table holds one slot per
// function the scenario names, not one per interned FuncID.
func (p *Program) group(id interpose.FuncID) []progEntry {
	if len(p.entries) == 1 {
		return p.entries[0] // one touched function: id is it
	}
	w, b := int(id)/64, uint(id)%64
	n := bits.OnesCount64(p.touched[w] & (1<<b - 1))
	for _, x := range p.touched[:w] {
		n += bits.OnesCount64(x)
	}
	return p.entries[n]
}

// decl returns the index of the trigger declared as id, or -1. A
// scenario declares a handful of triggers, so a scan beats a map.
func (p *Program) decl(id string) int {
	for i := range p.decls {
		if p.decls[i].id == id {
			return i
		}
	}
	return -1
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
	p := &Program{decls: make([]declInfo, len(s.Triggers))}
	for i := range s.Triggers {
		td := &s.Triggers[i]
		p.decls[i] = declInfo{id: td.ID, class: td.Class, args: td.Args}
	}
	if len(s.Functions) == 0 {
		return p, nil
	}
	// order lists the associations by FuncID, scenario order within one
	// function (the disjunction is evaluated in scenario order), so
	// each function's entries are one contiguous run of flat.
	type assoc struct {
		id interpose.FuncID
		fa int
	}
	var buf [8]assoc
	order := buf[:0]
	var maxID interpose.FuncID
	nrefs := 0
	for i := range s.Functions {
		a := assoc{id: interpose.Intern(s.Functions[i].Name), fa: i}
		k := len(order)
		order = append(order, a)
		for ; k > 0 && order[k-1].id > a.id; k-- {
			order[k] = order[k-1]
		}
		order[k] = a
		maxID = max(maxID, a.id)
		nrefs += len(s.Functions[i].Refs)
	}
	p.touched = make([]uint64, int(maxID)/64+1)
	p.entries = make([][]progEntry, 0, len(order))
	flat := make([]progEntry, len(order))
	refs := make([]progRef, nrefs)
	ids := make([]string, nrefs)
	start := 0
	for k, a := range order {
		fa := &s.Functions[a.fa]
		en := &flat[k]
		en.observational = fa.Observational()
		if !en.observational {
			rv, e, err := fa.RetvalErrno()
			if err != nil {
				return nil, err
			}
			en.retval, en.e = rv, e
		}
		n := len(fa.Refs)
		en.refs, refs = refs[:n:n], refs[n:]
		en.ids, ids = ids[:n:n], ids[n:]
		for j, ref := range fa.Refs {
			en.refs[j] = progRef{decl: p.decl(ref.Ref), negate: ref.Negate}
			en.ids[j] = ref.Ref
		}
		if k+1 == len(order) || order[k+1].id != a.id {
			p.entries = append(p.entries, flat[start:k+1:k+1])
			start = k + 1
		}
		p.touched[int(a.id)/64] |= 1 << (uint(a.id) % 64)
	}
	return p, nil
}
