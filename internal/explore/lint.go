package explore

import (
	"fmt"
	"sort"
	"strings"

	"lfi/internal/callgraph"
	"lfi/internal/impact"
)

// LintSite is one library call site in a lint report.
type LintSite struct {
	Offset uint64 `json:"offset"`
	Callee string `json:"callee"`
	Caller string `json:"caller"`
	// Intra is the paper's windowed Algorithm 1 class; Final the
	// interprocedural verdict.
	Intra string `json:"intra"`
	Final string `json:"final"`
	// Block is the recovery block registered for the site ("" when the
	// site map doesn't name one); Dead marks blocks no error path can
	// reach.
	Block string `json:"block,omitempty"`
	Dead  bool   `json:"dead,omitempty"`
}

// LintReport is the result of `lfi lint` over one system: the
// interprocedural analysis (package callgraph) resolved against the
// system's registered site map, plus the summary-reuse accounting of
// the incremental path.
type LintReport struct {
	System        string           `json:"system"`
	Image         string           `json:"image"`
	Funcs         int              `json:"funcs"`
	SCCs          int              `json:"sccs"`
	IndirectCalls int              `json:"indirectCalls"`
	Counts        callgraph.Counts `json:"counts"`
	Sites         []LintSite       `json:"sites"`
	// DeadBlocks lists recovery blocks unreachable by any error path —
	// their sites provably drop the library error, so no error-
	// conditional branch into the block exists.
	DeadBlocks []string `json:"deadBlocks,omitempty"`
	// Recomputed lists functions whose summaries were computed this
	// run; Reused counts summaries taken from the store, and Baseline
	// names the image they were recorded under ("" on a cold run).
	Recomputed []string `json:"recomputed"`
	Reused     int      `json:"reused"`
	Baseline   string   `json:"baseline,omitempty"`
}

// Lint runs the interprocedural error-propagation analysis over one
// system's binary. With cfg.Store set, summaries persisted by an
// earlier lint or explore session are reused for every function whose
// body fingerprint is unchanged (and the fresh set is saved back), so
// a one-function edit recomputes only that function plus its
// call-graph ancestors.
func Lint(cfg Config) (*LintReport, error) {
	image := ImageVersion(cfg.Binary)
	profHashes := impact.ProfileHashes(cfg.Profiles)

	var store *Store
	var prior callgraph.Summaries
	baseline := ""
	if cfg.Store != "" {
		var err error
		store, err = LoadStore(cfg.Store, cfg.System, image)
		if err != nil {
			return nil, err
		}
		prior, baseline = store.reusableSummaries(profHashes)
	}

	a := callgraph.AnalyzeIncremental(cfg.Binary, cfg.Profiles, prior)

	rep := &LintReport{
		System:        cfg.System,
		Image:         image,
		Funcs:         len(a.Summaries),
		SCCs:          len(a.SCCs),
		IndirectCalls: a.IndirectCalls,
		Counts:        a.Counts(),
		Recomputed:    a.Recomputed,
		Reused:        a.Reused,
		Baseline:      baseline,
	}
	blocks := blockAt(cfg.BlockOffsets)
	for _, s := range a.Sites {
		ls := LintSite{
			Offset: s.Offset,
			Callee: s.Callee,
			Caller: s.Caller,
			Intra:  s.Intra.String(),
			Final:  s.Final.String(),
			Block:  blocks[s.Offset],
		}
		if s.DeadRecovery && ls.Block != "" {
			ls.Dead = true
			rep.DeadBlocks = append(rep.DeadBlocks, ls.Block)
		}
		rep.Sites = append(rep.Sites, ls)
	}
	sort.Strings(rep.DeadBlocks)

	if store != nil {
		if err := store.SaveSummaries(a.Summaries, a.Summaries.Hashes(), profHashes); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// String renders the report for humans: the class tally, the call
// graph shape, the summary-reuse accounting, and one line per site the
// interprocedural analysis has something to say about.
func (r *LintReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "lint %s@%s: %d sites — %d checked, %d partial, %d unchecked, %d swallowed, %d checked-in-caller\n",
		r.System, r.Image[strings.IndexByte(r.Image, '@')+1:], len(r.Sites),
		r.Counts.Checked, r.Counts.Partial, r.Counts.Unchecked, r.Counts.Swallowed, r.Counts.CheckedInCaller)
	fmt.Fprintf(&b, "  call graph: %d functions, %d SCCs, %d indirect calls\n", r.Funcs, r.SCCs, r.IndirectCalls)
	switch {
	case r.Baseline != "":
		fmt.Fprintf(&b, "  summaries: %d recomputed, %d reused from %s\n", len(r.Recomputed), r.Reused, r.Baseline)
	default:
		fmt.Fprintf(&b, "  summaries: %d recomputed (cold)\n", len(r.Recomputed))
	}
	for _, s := range r.Sites {
		if s.Final == s.Intra && !s.Dead {
			continue
		}
		fmt.Fprintf(&b, "  %s@%x in %s: %s", s.Callee, s.Offset, s.Caller, s.Final)
		if s.Final != s.Intra {
			fmt.Fprintf(&b, " (windowed: %s)", s.Intra)
		}
		if s.Dead {
			fmt.Fprintf(&b, " — recovery block %s unreachable by any error path", s.Block)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
