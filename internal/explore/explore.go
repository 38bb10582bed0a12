// Package explore implements the automatic, coverage-guided fault-space
// exploration engine — the layer that turns the reproduction from
// "replays the paper's scenarios" into "discovers its own".
//
// The paper's workflow (§5, §7.1) is a loop a human tester drives: the
// analyzer proposes injection scenarios, the controller runs them, and
// recovery-code coverage goes up. This package closes that loop
// mechanically. A generator enumerates candidate scenarios from the
// cross product of (profiled function × returnable error value × errno
// side effect × occurrence/call-stack trigger), using the library fault
// profiles of internal/profile and the Algorithm 1 classifications of
// internal/callsite — the occurrence dimension is gated to functions
// with at least one Unchecked or Partial call site. A scheduler then
// runs candidates in batches on the parallel campaign executor and
// feeds coverage deltas back in: candidates that target still-uncovered
// recovery blocks are prioritized (the code-combinations-coverage idea
// of Huang et al.), callees that recently produced new blocks or new
// bug signatures get boosted, and the run stops when its frontier is
// drained or its budget is spent.
//
// Candidates that prove interesting breed *window* mutants that feed
// back into the queue. Occurrence candidates that injected and then
// failed or reached recovery code the suite alone does not breed
// global CallCount from/to bursts that widen, shift, and split;
// call-stack candidates whose single shot was tolerated but reached
// recovery code breed *call-stack windows* — SiteCount bursts counted
// locally at the call site. Sustained-pressure bugs (PBFT's
// view-change crash needs both the request and the pre-prepare lost)
// are only reachable through the former; bursts hiding past the global
// occurrence range (RAFT's log-truncation crash, deep in the receive
// stream) only through the latter.
//
// Outcomes persist in a store keyed by scenario content hash plus a
// hash of the targeted code region — one snapshot and journal per
// system, per-image manifests of regions in an index — so a second run
// against an unchanged target replays results instead of re-executing
// them, a run after a code change re-executes only the scenarios aimed
// at the changed region, and stores for multiple image versions coexist
// (the reuse-of-intermediate-results idea of Beyer et al.).
package explore

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"lfi/internal/callgraph"
	"lfi/internal/callsite"
	"lfi/internal/controller"
	"lfi/internal/coverage"
	"lfi/internal/errno"
	"lfi/internal/exec"
	"lfi/internal/impact"
	"lfi/internal/isa"
	"lfi/internal/profile"
	"lfi/internal/scenario"
	"lfi/internal/trigger"
)

// Kind classifies how a candidate aims its fault.
type Kind int

const (
	// Vulnerable targets an Unchecked or Partial call site with an
	// error code the site does not check (the paper's C_not/C_part
	// scenarios — likeliest to crash the target).
	Vulnerable Kind = iota
	// Exercise injects a code the site does check, driving execution
	// into the recovery code behind the check (the Table 3 coverage
	// workflow; finds bugs inside recovery code itself).
	Exercise
	// Occurrence injects at the n-th dynamic call of a function,
	// regardless of site — the cross-product dimension that reaches
	// sites and occurrences the stack-targeted candidates miss.
	Occurrence
	// Window injects on every call in a CallCount from/to burst. Window
	// candidates are never generated up front: they are mutants, bred
	// from occurrence candidates that produced recovery coverage or a
	// failure, by widening, shifting, and splitting the burst. Bugs
	// that need *sustained* fault pressure — PBFT's view-change crash
	// requires losing both the request and the pre-prepare — are only
	// reachable through this kind.
	Window
	// StackWindow injects on a burst counted *locally at one call
	// site*: a CallStackTrigger pinning the site composed with a
	// SiteCountTrigger window (the conjunction short-circuits, so the
	// counter only sees calls from that frame). Bred from call-stack
	// candidates whose single shot was tolerated but reached recovery
	// code, then widened, shifted, and split like Window. Distributed
	// recovery bugs that hide *past* the global occurrence range —
	// RAFT's log-truncation crash sits in the replication loop after
	// the election churn has consumed the global recvfrom count — are
	// only reachable through this kind.
	StackWindow
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Vulnerable:
		return "vulnerable"
	case Exercise:
		return "exercise"
	case Occurrence:
		return "occurrence"
	case Window:
		return "window"
	case StackWindow:
		return "stack-window"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Candidate is one proposed injection experiment. The explorer keys
// (with a store), deduplicates and schedules a candidate by its
// parameters alone and builds its scenario only when it launches.
type Candidate struct {
	// Scenario is the built scenario: nil until the candidate is
	// launched, except in Generate's output, which is built.
	Scenario   *scenario.Scenario
	Kind       Kind
	Callee     string
	Caller     string // enclosing symbol, call-stack kinds only
	Offset     uint64 // call site offset, call-stack kinds only
	Occurrence uint64 // n-th call, Occurrence kind only
	From, To   uint64 // burst bounds, Window and StackWindow kinds only
	Code       int64
	Errno      errno.Errno
	Class      callsite.Class
	// Block is the recovery basic block this candidate targets, when
	// the target application's site map can name it ("" = unknown).
	Block string
	// Hash is the content hash of the serialized scenario. The
	// explorer derives it from the parameters (keyer), before any
	// scenario is built, and only in a run with a store: at setup for
	// the generated candidates and the mutants the store replay breeds,
	// else once the candidate has run (the run's store job) or when the
	// run finishes.
	Hash string
	// name is the scenario name, which encodes every parameter (see
	// stackName): the identity the explorer deduplicates and breaks
	// ranking ties by.
	name string
	// key is Hash plus the targeted code region's hash — the store
	// identity that invalidates the cached outcome when code changes.
	// keyer.key sets both; Generate's output and a run without a store
	// have no key. The scheduler reads neither: while a run's store job
	// runs, the key and Hash of the candidates it stores are the job's.
	key string
	// reval is the re-validation boost the stale-outcome rule gave a
	// candidate whose cached outcome a code or fault-profile edit may
	// have affected (buildDiff.revalBoost), so it jumps the queue; 0
	// for every other candidate.
	reval float64
	// base and pos are what score caches once ranked is set: the
	// static part of the score and Block's position in the run's
	// universe (-1: none). pos is an int32, so that with reval a
	// Candidate still fits the 192-byte allocation size class.
	ranked bool
	pos    int32
	base   float64
}

// Config parametrizes one exploration run.
type Config struct {
	// System names the target (store records and bug reports).
	System string
	// Binary is the program image the analyzer dissects.
	Binary *isa.Binary
	// Profiles are the library fault profiles to cross with the
	// binary's imports.
	Profiles []*profile.Profile
	// Target is the controller target the coverage baseline runs (the
	// default suite, no injection); its outcome's universe is the one
	// every batch outcome's coverage is folded over.
	Target controller.Target
	// BlockOffsets maps recovery-block IDs to their check sites' code
	// offsets: the site map candidates name their target block from
	// and impact analysis walks. Optional; when empty, candidates target
	// no known block and a resume after a code edit degrades to the
	// conservative whole-shard fallback.
	BlockOffsets map[string]uint64

	// Exec is the execution-backend fleet batches dispatch through.
	// nil means the fleet Explore shares among every config without
	// one: a single local (in-process) backend of GOMAXPROCS width. The
	// fleet decides where a batch runs, never which system runs next.
	Exec *exec.Fleet
	// Store is the path of the persistent campaign store ("" = none).
	Store string
	// Seed fixes the runtime random source per run.
	Seed int64
	// Log receives per-batch progress lines (nil = silent).
	Log io.Writer
	// Status, when set, receives a progress snapshot after every batch
	// — the hook the session's fleet publisher forwards to the registry
	// so `lfi fleet status` can watch a campaign live. Called from the
	// scheduling goroutine; keep it fast (hand off, don't block).
	Status func(StatusUpdate)
}

// StatusUpdate is one live campaign progress snapshot: outcomes folded
// so far, the coverage frontier, and the gain-per-run EWMA the
// explorer is scheduling on.
type StatusUpdate struct {
	System         string
	Executed       int
	Replayed       int
	Bugs           int
	Covered        int // recovery blocks reached so far
	RecoveryBlocks int // recovery blocks in the universe
	GainPerRun     float64
}

// batchSize is the number of candidates per scheduling round, and
// maxOccurrence bounds the occurrence dimension (n-th call, 1..6) and,
// through it, the window-mutation lattice.
const (
	batchSize     = 16
	maxOccurrence = 6
)

func (c Config) withDefaults() Config {
	if c.System == "" && c.Binary != nil {
		c.System = c.Binary.Name
	}
	return c
}

// BatchReport summarizes one scheduling round.
type BatchReport struct {
	Index     int
	Runs      int
	NewBlocks []string // recovery blocks first covered in this batch
	NewBugs   []string // failure signatures first seen in this batch
	Recovery  coverage.Stats
}

// Result is the outcome of one exploration run.
type Result struct {
	System     string
	Candidates int
	Mutants    int // window candidates bred during the run
	Executed   int // tests actually run
	Replayed   int // outcomes reused from the store
	Batches    []BatchReport
	Bugs       []controller.Bug
	Baseline   coverage.Stats // recovery coverage, default suite alone
	Final      coverage.Stats // recovery coverage after exploration
	Total      coverage.Stats // total coverage after exploration
	Elapsed    time.Duration
	// StoreStats is the persistent store's compaction summary after the
	// final save (nil when the run had no store).
	StoreStats *StoreStats
	// Impact is the change-impact analysis summary (nil unless the
	// store recorded a previous image or a fault-profile edit).
	Impact *ImpactSummary
}

// CoverageGain reports whether exploration covered recovery blocks the
// run's first batch had not reached yet.
func (r *Result) CoverageGain() bool {
	if len(r.Batches) == 0 {
		return false
	}
	return r.Final.BlocksCovered > r.Batches[0].Recovery.BlocksCovered
}

// String renders the run summary.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "explore %s: %d candidates (+%d window mutants), %d executed, %d replayed, %d batches (%.2fs)\n",
		r.System, r.Candidates, r.Mutants, r.Executed, r.Replayed, len(r.Batches), r.Elapsed.Seconds())
	fmt.Fprintf(&b, "  recovery coverage: %s (suite alone) -> %s\n", r.Baseline, r.Final)
	fmt.Fprintf(&b, "  total coverage:    %s\n", r.Total)
	if r.Impact != nil {
		fmt.Fprintf(&b, "  %s\n", r.Impact)
	}
	fmt.Fprintf(&b, "  %d distinct failure signatures:\n", len(r.Bugs))
	for _, bug := range r.Bugs {
		fmt.Fprintf(&b, "    %s (%d scenarios)\n", bug.Signature, len(bug.Scenarios))
	}
	return b.String()
}

// --- candidate generation ----------------------------------------------------

// Generate enumerates the candidate fault space for cfg, in a
// deterministic order: call-stack candidates by site offset, then the
// occurrence cross product by function name, each with its scenario
// built.
func Generate(cfg Config) []*Candidate {
	cfg = cfg.withDefaults()
	cands := generate(cfg)
	for _, c := range cands {
		c.Scenario = c.build(cfg.Binary.Name)
		c.Hash = c.Scenario.ContentHash()
	}
	return cands
}

// generate is Generate without the builds: every candidate carries its
// name and parameters, and no key yet. Duplicate scenarios (same name,
// hence same content) are dropped before anything is serialized.
func generate(cfg Config) []*Candidate {
	a := &callsite.Analyzer{}
	rep := a.Analyze(cfg.Binary, cfg.Profiles...)

	var out []*Candidate
	seen := make(map[string]bool)
	blocks := blockAt(cfg.BlockOffsets)
	bin := cfg.Binary.Name
	var buf []byte // scratch candidate names are assembled in
	// fresh returns the name just assembled in buf, unless a scenario
	// of that name was already generated.
	fresh := func() (string, bool) {
		if seen[string(buf)] {
			return "", false
		}
		name := string(buf)
		seen[name] = true
		return name, true
	}
	addStack := func(site callsite.Site, code int64, e errno.Errno, kind Kind) {
		buf = stackName(buf[:0], bin, site.Callee, site.Offset, code, e)
		if name, ok := fresh(); ok {
			out = append(out, &Candidate{
				name: name, Kind: kind, Callee: site.Callee, Caller: site.Caller,
				Offset: site.Offset, Code: code, Errno: e, Class: site.Class, Block: blocks[site.Offset],
			})
		}
	}

	vulnerableFn := make(map[string]bool)
	for _, site := range rep.Sites {
		if site.Class != callsite.Checked {
			vulnerableFn[site.Callee] = true
		}
		// Vulnerable: codes the site fails to check.
		if site.Class != callsite.Checked {
			for _, code := range site.Missing {
				for _, e := range errnosFor(cfg.Profiles, site.Callee, code) {
					addStack(site, code, e, Vulnerable)
				}
			}
		}
		// Exercise: codes the site does check — run its recovery path.
		codes := site.ChkEq
		if len(codes) == 0 && site.Class == callsite.Checked {
			codes = profileErrorCodes(cfg.Profiles, site.Callee)
		}
		for _, code := range codes {
			for _, e := range errnosFor(cfg.Profiles, site.Callee, code) {
				addStack(site, code, e, Exercise)
			}
		}
	}

	// Occurrence cross product, only for functions with a vulnerable
	// (Unchecked/Partial) error return somewhere in the binary.
	fns := make([]string, 0, len(vulnerableFn))
	for fn := range vulnerableFn {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	for _, fn := range fns {
		for _, code := range profileErrorCodes(cfg.Profiles, fn) {
			for _, e := range errnosFor(cfg.Profiles, fn, code) {
				for n := uint64(1); n <= maxOccurrence; n++ {
					buf = occurrenceName(buf[:0], bin, fn, n, code, e)
					if name, ok := fresh(); ok {
						out = append(out, &Candidate{name: name, Kind: Occurrence, Callee: fn, Occurrence: n, Code: code, Errno: e})
					}
				}
			}
		}
	}
	return out
}

// blockAt inverts the site map: the recovery block each check-site
// offset guards.
func blockAt(offs map[string]uint64) map[uint64]string {
	m := make(map[uint64]string, len(offs))
	for id, off := range offs {
		m[off] = id
	}
	return m
}

// Generated scenario names. A name encodes every parameter of its
// scenario's content — binary, callee, call site, window, code and
// errno — so equal names mean byte-equal scenarios, and since the name
// is part of the XML, different names mean different content hashes.
// The name is therefore the scenario identity the explorer
// deduplicates by, before it builds and hashes anything. Each appends
// to b, so a caller can test a name against its seen set without
// allocating.

func stackName(b []byte, bin, callee string, off uint64, code int64, e errno.Errno) []byte {
	b = nameHead(b, "explore-cs-", bin, callee)
	b = strconv.AppendUint(b, off, 16)
	return nameTail(b, code, e)
}

func occurrenceName(b []byte, bin, fn string, n uint64, code int64, e errno.Errno) []byte {
	b = nameHead(b, "explore-occ-", bin, fn)
	b = strconv.AppendUint(b, n, 10)
	return nameTail(b, code, e)
}

func windowName(b []byte, bin, fn string, from, to uint64, code int64, e errno.Errno) []byte {
	b = nameHead(b, "explore-win-", bin, fn)
	b = appendBounds(b, from, to)
	return nameTail(b, code, e)
}

func stackWindowName(b []byte, bin, callee string, off, from, to uint64, code int64, e errno.Errno) []byte {
	b = nameHead(b, "explore-swin-", bin, callee)
	b = strconv.AppendUint(b, off, 16)
	b = append(b, '-')
	b = appendBounds(b, from, to)
	return nameTail(b, code, e)
}

func nameHead(b []byte, prefix, bin, callee string) []byte {
	b = append(b, prefix...)
	b = append(b, bin...)
	b = append(b, '-')
	b = append(b, callee...)
	return append(b, '-')
}

func appendBounds(b []byte, from, to uint64) []byte {
	b = strconv.AppendUint(b, from, 10)
	b = append(b, '-')
	return strconv.AppendUint(b, to, 10)
}

func nameTail(b []byte, code int64, e errno.Errno) []byte {
	b = append(b, '-')
	b = strconv.AppendInt(b, code, 10)
	b = append(b, '-')
	return append(b, e.String()...)
}

// build assembles c's scenario as a literal of its shape (template):
// the bytes keyer.key derives c.Hash from. The generators only ever
// produce valid ones, and the scenario is left unsealed: core.Compile
// validates it where it runs, and a wire encoder serializes it when it
// ships, so launch neither validates, serializes nor hashes it. A
// call-stack candidate pins its site with a CallStackTrigger and fires
// once; an occurrence one fires on the n-th call. A window fires on
// every call in a CallCount from/to burst. A stack window composes the
// CallStackTrigger with a SiteCountTrigger burst: the conjunction
// short-circuits, so the counter sees only calls made from that site,
// and the burst is independent of how often the rest of the program
// called the same function.
func (c *Candidate) build(bin string) *scenario.Scenario {
	var s scenario.Scenario
	switch c.Kind {
	case Vulnerable, Exercise:
		off := strconv.FormatUint(c.Offset, 16)
		s = template(scenario.TriggerDecl{ID: off, Class: "CallStackTrigger", Args: frameArgs(bin, off)},
			scenario.TriggerDecl{ID: "once", Class: "SingletonTrigger"})
	case Occurrence:
		s = template(scenario.TriggerDecl{ID: "nth", Class: "CallCountTrigger", Args: scenario.IntArgs("n", c.Occurrence)})
	case Window:
		s = template(scenario.TriggerDecl{ID: "win", Class: "CallCountTrigger", Args: scenario.BurstArgs(c.From, c.To)})
	case StackWindow:
		off := strconv.FormatUint(c.Offset, 16)
		s = template(scenario.TriggerDecl{ID: off, Class: "CallStackTrigger", Args: frameArgs(bin, off)},
			scenario.TriggerDecl{ID: "swin", Class: "SiteCountTrigger", Args: scenario.BurstArgs(c.From, c.To)})
	}
	fa := &s.Functions[0]
	s.Name, fa.Name, fa.Return, fa.Errno = c.name, c.Callee, strconv.FormatInt(c.Code, 10), c.Errno.String()
	return &s
}

// keyer derives candidates' store keys from their parameters: key
// fills the template of the candidate's scenario shape in place and
// runs the canonical serializer over it into a reused buffer — the
// bytes of the scenario build assembles, with no scenario built
// (TestCandidateKeyMatchesBuild pins the two together). A keyer
// belongs to one run with a store, used by one goroutine at a time:
// the run's setup, then its store jobs one after another, then its
// finish.
type keyer struct {
	// hashes is the code hasher of the region half of every key.
	hashes *impact.Hasher
	buf    []byte
	// The templates of build's four shapes, and the argument trees they
	// share, whose texts key sets.
	stack, occ, win, swin scenario.Scenario
	frame, nth, burst     *trigger.Args
}

func newKeyer(bin *isa.Binary) *keyer {
	k := &keyer{
		hashes: impact.NewHasher(bin),
		frame:  frameArgs(bin.Name, ""),
		nth:    scenario.IntArgs("n", 0),
		burst:  scenario.BurstArgs(0, 0),
	}
	k.stack = template(scenario.TriggerDecl{Class: "CallStackTrigger", Args: k.frame},
		scenario.TriggerDecl{ID: "once", Class: "SingletonTrigger"})
	k.occ = template(scenario.TriggerDecl{ID: "nth", Class: "CallCountTrigger", Args: k.nth})
	k.win = template(scenario.TriggerDecl{ID: "win", Class: "CallCountTrigger", Args: k.burst})
	k.swin = template(scenario.TriggerDecl{Class: "CallStackTrigger", Args: k.frame},
		scenario.TriggerDecl{ID: "swin", Class: "SiteCountTrigger", Args: k.burst})
	return k
}

// template is a shape: triggers, and one injecting function whose
// conjunction references each of them in order.
func template(triggers ...scenario.TriggerDecl) scenario.Scenario {
	refs := make([]scenario.TriggerRef, len(triggers))
	for i, td := range triggers {
		refs[i].Ref = td.ID
	}
	return scenario.Scenario{Triggers: triggers, Functions: []scenario.FunctionAssoc{{Refs: refs}}}
}

// key sets c.Hash to the content hash c's built scenario would have,
// and c.key to that hash, '@', and the region of c's caller (the whole
// image for a candidate without one). The hash is the key's prefix, so
// the two are one string.
func (k *keyer) key(c *Candidate) {
	var s *scenario.Scenario
	switch c.Kind {
	case Vulnerable, Exercise:
		s = &k.stack
	case Occurrence:
		s = &k.occ
		k.nth.Children[0].Text = strconv.FormatUint(c.Occurrence, 10)
	case Window:
		s = &k.win
	case StackWindow:
		s = &k.swin
	}
	if c.Kind == Window || c.Kind == StackWindow {
		k.burst.Children[0].Text = strconv.FormatUint(c.From, 10)
		k.burst.Children[1].Text = strconv.FormatUint(c.To, 10)
	}
	if s.Triggers[0].Class == "CallStackTrigger" {
		off := strconv.FormatUint(c.Offset, 16)
		s.Triggers[0].ID, s.Functions[0].Refs[0].Ref = off, off
		k.frame.Children[0].Children[1].Text = off
	}
	fa := &s.Functions[0]
	s.Name, fa.Name, fa.Return, fa.Errno = c.name, c.Callee, strconv.FormatInt(c.Code, 10), c.Errno.String()
	k.buf = s.AppendCanonical(k.buf[:0])
	sum := sha256.Sum256(k.buf)
	var h [16]byte
	hex.Encode(h[:], sum[:8])
	c.key = string(h[:]) + "@" + k.hashes.Region(c.Caller)
	c.Hash = c.key[:len(h)]
}

// frameArgs is a CallStackTrigger's one-frame argument tree; off is the
// call site offset in hex.
func frameArgs(module, off string) *trigger.Args {
	return &trigger.Args{
		Name: "args",
		Children: []*trigger.Args{{
			Name: "frame",
			Children: []*trigger.Args{
				{Name: "module", Text: module},
				{Name: "offset", Text: off},
			},
		}},
	}
}

func errnosFor(ps []*profile.Profile, callee string, code int64) []errno.Errno {
	for _, p := range ps {
		if fp := p.Func(callee); fp != nil {
			if es := fp.ErrnosFor(code); len(es) > 0 {
				return es
			}
		}
	}
	return []errno.Errno{errno.OK}
}

func profileErrorCodes(ps []*profile.Profile, callee string) []int64 {
	for _, p := range ps {
		if fp := p.Func(callee); fp != nil {
			return fp.ErrorCodes()
		}
	}
	return nil
}

// ImageVersion identifies the target image the store entries belong to
// (impact.ImageVersion, which fleet workers advertise too).
func ImageVersion(b *isa.Binary) string { return impact.ImageVersion(b) }

// --- the exploration loop ----------------------------------------------------

// explorer is the mutable state of one run.
type explorer struct {
	cfg   Config
	sigs  map[string][]string // failure signature -> scenario names
	boost map[string]float64  // callee -> feedback priority boost

	// The system's block universe, taken from the baseline outcome, and
	// two bitsets over it: the blocks reached so far and the blocks the
	// suite covers with no injection. Every batch outcome's coverage is
	// over idx already (a batch runs only on a backend whose universe is
	// this process's Blocks, checked at a worker's hello), so folding is
	// bit arithmetic.
	idx     *coverage.Index
	covered coverage.Bitset
	base    coverage.Bitset
	// table is idx's ID table as fresh store entries carry it. Replayed
	// entries are over the table they were stored with, which may
	// predate a code change elsewhere in the image: remaps maps each
	// table onto idx once (nil: the table is idx's own), dropping blocks
	// idx no longer declares, and scratch receives remapped coverage.
	table   *blockTable
	remaps  map[*blockTable]*coverage.Remap
	scratch coverage.Bitset

	// Mutation state: the scenario names already enumerated (initial
	// candidates plus spawned mutants), and the keyer of every
	// candidate and mutant store key (nil without a store: nothing
	// looks a key up, so none is derived; once the run is set up, only
	// the run's store job and finish use it). (Mutation triggers only
	// on coverage *beyond* the suite baseline, so the decision is
	// identical whether an outcome was executed or replayed, in any
	// order.)
	seen    map[string]bool
	keyer   *keyer
	spawned int
	name    []byte // scratch a mutant's name is assembled in

	// top is takeBatch's scratch: the best pending candidates.
	top []ranked

	// static is the interprocedural prior: final site class by call
	// offset (package callgraph). Swallowed sites — statically proven
	// to drop a library error — outrank plain C_not sites; sites every
	// caller provably checks rank below recovery exercising.
	static map[uint64]callsite.Class

	// imageVersion is this build's image of the system: every batch
	// carries it, so only backends running this build execute it.
	imageVersion string
}

// coverageOf returns an entry's coverage over idx. The result may be
// x.scratch, valid until the next call.
func (x *explorer) coverageOf(e Entry) coverage.Bitset {
	if e.table == nil {
		return nil
	}
	m, ok := x.remaps[e.table]
	if !ok {
		m = x.idx.Remap(e.table.ids)
		x.remaps[e.table] = m
	}
	if m == nil {
		return e.cov
	}
	x.scratch.Reset()
	m.OrInto(x.scratch, e.cov)
	return x.scratch
}

// mutationWorthy reports whether an outcome earns its candidate a set
// of window mutants: it actually injected, and it either failed or
// reached recovery code the default suite does not reach. cov is the
// outcome's coverage over idx.
func (x *explorer) mutationWorthy(e Entry, cov coverage.Bitset) bool {
	if e.Injections == 0 {
		return false
	}
	if e.Failed {
		return true
	}
	rec := x.idx.Recoveries()
	for w := 0; w < len(cov) && w < len(rec); w++ {
		if cov[w]&rec[w]&^x.base[w] != 0 {
			return true
		}
	}
	return false
}

// mutate breeds window candidates from a worthy candidate. A single
// occurrence n seeds the global bursts [n,n+1] and [n,n+2]; a window
// (global or stack) widens, shifts, and splits in its own kind. A
// call-stack candidate whose single shot was *tolerated* (failed is
// false) but still reached recovery code seeds the site-local bursts
// [1,2] and [1,3] — sustained pressure exactly where one fault was
// absorbed; one that crashed seeds nothing, the single shot already
// found the bug. Results are bounded to [1, 2*maxOccurrence] for
// global windows and [1, maxOccurrence] for stack windows (site-local
// counts are aligned to the site, so the interesting bursts sit near
// the start), with bursts no longer than maxOccurrence, and
// deduplicated by name against everything already enumerated before
// anything is hashed, so the mutation lattice is finite, the loop
// always terminates, and each kept mutant is keyed at most once (by
// the caller, not by mutate) and built only if it launches. Every
// decision depends only on the candidate and its outcome entry, never
// on scheduling order, so a resumed run re-breeds the same lattice
// from replayed entries alone.
func (x *explorer) mutate(c *Candidate, failed bool) []*Candidate {
	var buf [5][2]uint64 // at most five windows: widen, shift, shift left, two halves
	wins := buf[:0]
	stack := false
	switch c.Kind {
	case Vulnerable, Exercise:
		if failed {
			return nil
		}
		stack = true
		wins = append(wins, [2]uint64{1, 2}, [2]uint64{1, 3})
	case Occurrence:
		n := c.Occurrence
		wins = append(wins, [2]uint64{n, n + 1}, [2]uint64{n, n + 2})
	case Window, StackWindow:
		stack = c.Kind == StackWindow
		a, b := c.From, c.To
		wins = append(wins, [2]uint64{a, b + 1}) // widen
		wins = append(wins, [2]uint64{a + 1, b + 1})
		if a > 1 {
			wins = append(wins, [2]uint64{a - 1, b}) // shift / widen left
		}
		if b-a >= 3 { // split
			m := (a + b) / 2
			wins = append(wins, [2]uint64{a, m}, [2]uint64{m + 1, b})
		}
	default:
		return nil
	}
	maxTo := uint64(2 * maxOccurrence)
	if stack {
		maxTo = maxOccurrence
	}
	maxLen := uint64(maxOccurrence)
	bin := x.cfg.Binary.Name
	var out []*Candidate // allocated once, at the first mutant not yet seen
	for _, w := range wins {
		from, to := w[0], w[1]
		if from < 1 || to <= from || to > maxTo || to-from+1 > maxLen {
			continue
		}
		if stack {
			x.name = stackWindowName(x.name[:0], bin, c.Callee, c.Offset, from, to, c.Code, c.Errno)
		} else {
			x.name = windowName(x.name[:0], bin, c.Callee, from, to, c.Code, c.Errno)
		}
		if x.seen[string(x.name)] {
			continue
		}
		name := string(x.name)
		x.seen[name] = true
		nc := &Candidate{name: name, Kind: Window, Callee: c.Callee, From: from, To: to, Code: c.Code, Errno: c.Errno}
		if stack {
			// A stack window stays aimed at its parent's site and keys
			// on its caller's region, like the parent.
			nc.Kind, nc.Caller, nc.Offset, nc.Class, nc.Block = StackWindow, c.Caller, c.Offset, c.Class, c.Block
		}
		x.spawned++
		if out == nil {
			out = make([]*Candidate, 0, len(wins))
		}
		out = append(out, nc)
	}
	return out
}

// score ranks a pending candidate. Higher runs earlier. The ordering
// encodes §5's testing discipline (exhaust C_not, then C_part, then
// exercise recovery) plus the coverage feedback: a candidate aimed at a
// recovery block that is still uncovered outranks one whose block was
// already reached, and callees that recently produced new blocks or
// new bug signatures are boosted.
func (x *explorer) score(c *Candidate) float64 {
	if !c.ranked {
		c.base, c.pos = x.baseScore(c), -1
		if c.Block != "" {
			if p, ok := x.idx.Pos(c.Block); ok {
				c.pos = int32(p)
			}
		}
		c.ranked = true
	}
	s := c.base
	if c.Block != "" {
		if c.pos >= 0 && x.covered.Has(int(c.pos)) {
			s -= 50
		} else {
			s += 30
		}
	}
	return s + c.reval + x.boost[c.Callee]
}

// baseScore is the part of c's score that depends on c and the run's
// static prior alone, so score computes it once per candidate.
func (x *explorer) baseScore(c *Candidate) float64 {
	var s float64
	switch c.Kind {
	case Vulnerable:
		s = 100
		if c.Class == callsite.Partial {
			s = 90
		}
		// Static prior: a site whose error is statically proven to be
		// dropped is the likeliest crash — run it first. A site every
		// caller provably checks is a windowed-analysis false positive;
		// keep it (the proof rests on walkable CFGs) but run it after
		// the genuinely vulnerable sites and recovery exercising.
		switch x.static[c.Offset] {
		case callsite.Swallowed:
			s += 8
		case callsite.CheckedInCaller:
			s = 50
		}
	case Exercise:
		s = 60
	case Occurrence:
		s = 40 - float64(c.Occurrence)
	case Window:
		// Mutants rank just above plain occurrences: they exist because
		// an ancestor already proved the callee interesting.
		s = 45 - float64(c.From) - 0.5*float64(c.To-c.From)
	case StackWindow:
		// A notch above global windows: the ancestor proved this exact
		// call site tolerates a single fault, so the burst is aimed.
		s = 46 - float64(c.From) - 0.5*float64(c.To-c.From)
	}
	return s
}

func (x *explorer) reward(callee string) {
	if x.boost[callee] < 45 {
		x.boost[callee] += 15
	}
}

func (x *explorer) logf(format string, args ...any) {
	if x.cfg.Log != nil {
		fmt.Fprintf(x.cfg.Log, format+"\n", args...)
	}
}

// run is one system's in-flight exploration — the schedulable unit
// the driver (Explore) interleaves batches of.
type run struct {
	cfg   Config
	x     *explorer
	res   *Result
	store *Store
	// keys is the live candidate-key set Append and Save take (nil
	// without a store).
	keys map[string]bool
	// staged is the landed batch's executed candidates with their
	// entries, which the run's store job stores, reused across batches
	// (unused without a store). job reports a store job started and not
	// yet waited for; jobErr receives its error.
	staged  []staged
	job     bool
	jobErr  chan error
	pending []*Candidate
	// flying is set while a launched batch of this run has not landed.
	flying bool
	// stale is the resume's stale-outcome rule (nil when nothing
	// moved); finish asks it which entries a stop left unverified.
	stale *buildDiff
	// gain is the system's coverage yield per run, folded from this
	// run's own batches: the scheduling signal.
	gain  gainEWMA
	begin time.Time
}

// newRun generates the candidate space, runs the coverage baseline, and
// replays the persistent store, leaving the run ready to step.
func newRun(cfg Config) (*run, error) {
	cfg = cfg.withDefaults()
	begin := time.Now()
	cands := generate(cfg)

	x := &explorer{
		cfg:   cfg,
		sigs:  make(map[string][]string),
		boost: make(map[string]float64),
		seen:  make(map[string]bool, len(cands)),
	}
	for _, c := range cands {
		x.seen[c.name] = true
	}
	x.imageVersion = ImageVersion(cfg.Binary)
	res := &Result{System: cfg.System, Candidates: len(cands)}

	// Baseline: the default suite with no injection. Its outcome
	// carries the system's block universe and what the suite reaches on
	// its own, which seeds the covered-so-far set.
	tgt := cfg.Target
	tgt.Coverage = true
	base, err := controller.RunOne(tgt, nil)
	if err != nil {
		return nil, fmt.Errorf("explore: baseline: %w", err)
	}
	if base.CovU == nil {
		return nil, fmt.Errorf("explore: baseline: %s records no coverage", cfg.System)
	}
	x.idx, x.base, x.covered = base.CovU, base.Cov, base.Cov.Clone()
	x.table = &blockTable{ids: x.idx.IDs()}
	x.remaps = map[*blockTable]*coverage.Remap{x.table: nil}
	x.scratch = coverage.NewBitset(x.idx.Len())
	res.Baseline = x.idx.Recovery(x.base)

	// Replay the persistent store: cached outcomes count as explored
	// without executing anything. Worthy cached occurrence outcomes
	// spawn their window mutants here too (the worklist), so a cached
	// mutation chain replays to its fixpoint and a resumed run against
	// an unchanged target still executes nothing.
	var store *Store
	var stale *buildDiff
	var keys map[string]bool
	profHashes := impact.ProfileHashes(cfg.Profiles)
	if cfg.Store != "" {
		var err error
		store, err = LoadStore(cfg.Store, cfg.System, x.imageVersion)
		if err != nil {
			return nil, err
		}
		store.reserve(len(cands))
		// Store keys exist for result reuse alone: derive them only
		// when there is a store to look them up in.
		x.keyer = newKeyer(cfg.Binary)
		for _, c := range cands {
			x.keyer.key(c)
		}
		keys = candidateKeys(cands)
		// Diff-aware resume: the stale-outcome rule (impact.go) against
		// the store's previous image and profile fingerprints decides
		// per candidate whether its cached outcome replays, migrates
		// forward, or re-validates.
		funcHashes := impact.FuncHashes(cfg.Binary)
		if stale = storeDiff(cfg, store, funcHashes, profHashes); stale != nil {
			res.Impact = stale.summary(x.imageVersion)
		}
		// Record this image's function and profile fingerprints so the
		// *next* session can diff against us without the old binary or
		// the old profile set.
		store.SetFuncHashes(funcHashes)
		store.SetProfileHashes(profHashes)
	}

	// Static prior: refine the windowed site classes across frames
	// (package callgraph) and hand the final classes to the scheduler.
	// Summaries persisted by an earlier session are reused for every
	// function the current build left untouched, under an unchanged
	// fault-profile set. The fresh summary set is staged for this
	// image's manifest so the next session (lint or explore) diffs
	// against us.
	priorSums, _ := store.reusableSummaries(profHashes)
	inter := callgraph.AnalyzeIncremental(cfg.Binary, cfg.Profiles, priorSums)
	x.static = make(map[uint64]callsite.Class, len(inter.Sites))
	for _, st := range inter.Sites {
		x.static[st.Offset] = st.Final
	}
	store.SetSummaries(inter.Summaries)

	pending := make([]*Candidate, 0, len(cands))
	work := append([]*Candidate(nil), cands...)
	for len(work) > 0 {
		c := work[0]
		work = work[1:]
		v, e, oldKey := stale.classify(store, c)
		switch v {
		case adopt:
			store.Adopt(oldKey, c.key, e)
			res.Impact.Migrated++
		case revalidate:
			c.reval = stale.revalBoost(c, e)
			res.Impact.Revalidated++
			pending = append(pending, c)
			continue
		case miss:
			pending = append(pending, c)
			continue
		}
		res.Replayed++
		cov := x.coverageOf(e)
		x.covered.Or(cov)
		if e.Failed {
			x.sigs[e.Signature] = append(x.sigs[e.Signature], e.Name)
		}
		if x.mutationWorthy(e, cov) {
			for _, m := range x.mutate(c, e.Failed) {
				// classify looks the mutant up by its key.
				x.keyer.key(m)
				keys[m.key] = true
				work = append(work, m)
			}
		}
	}
	r := &run{cfg: cfg, x: x, res: res, store: store, keys: keys, pending: pending, stale: stale, begin: begin}
	if store != nil {
		// Room for the one result: a job never blocks on its send.
		r.jobErr = make(chan error, 1)
	}
	return r, nil
}

// logSetup writes what newRun replayed and the change-impact summary
// to the log. Explore calls it in input order once the runs are ready,
// so the lines do not depend on which setup finished first.
func (r *run) logSetup() {
	if r.res.Replayed > 0 {
		r.x.logf("explore %s: replayed %d cached outcomes from %s", r.cfg.System, r.res.Replayed, r.cfg.Store)
	}
	if r.res.Impact != nil {
		r.x.logf("explore %s: %s", r.cfg.System, r.res.Impact)
	}
}

// done reports whether scheduling is finished: the frontier is
// drained.
func (r *run) done() bool {
	return len(r.pending) == 0
}

// flight is one launched batch: its candidates, the dispatch, and its
// result, valid once done is closed.
type flight struct {
	run   *run
	batch []*Candidate
	ctx   context.Context
	b     *exec.Batch
	done  chan struct{}
	outs  []*exec.Outcome
	err   error
}

// launch takes the run's next batch and hands it to d, which dispatches
// it across the execution fleet; land waits for it and folds it. cap,
// when positive, bounds the batch size (the driver passes the budget
// left after every in-flight batch's reservation). A run has at most
// one batch in flight.
func (r *run) launch(ctx context.Context, cap int, d *dispatcher) *flight {
	size := batchSize
	if cap > 0 && cap < size {
		size = cap
	}
	f := &flight{run: r, ctx: ctx, done: make(chan struct{})}
	f.batch, r.pending = r.x.takeBatch(r.pending, size)
	scens := make([]*scenario.Scenario, len(f.batch))
	for i, c := range f.batch {
		if c.Scenario == nil {
			c.Scenario = c.build(r.cfg.Binary.Name)
		}
		scens[i] = c.Scenario
	}
	f.b = &exec.Batch{
		System:    r.cfg.System,
		Seed:      r.cfg.Seed,
		Coverage:  true,
		Scenarios: scens,
		Image:     r.x.imageVersion,
	}
	r.flying = true
	d.queue <- f
	return f
}

// land waits for a launched batch and folds its outcomes, then starts
// the run's store job, which keys, stores and journals them beside the
// next batch. Even a cancelled batch's drained outcomes (local prefix,
// in-flight remote responses) are folded, counted as executed and
// journaled, and only the candidates that never ran go back to the
// queue, so a mid-run error, interrupt or kill loses nothing that
// completed. land first waits for the run's previous store job; it
// returns the dispatch's error, else that job's journal error.
func (r *run) land(f *flight) error {
	<-f.done
	r.flying = false
	jerr := r.wait()
	var stage *[]staged
	if r.store != nil {
		r.staged = r.staged[:0]
		stage = &r.staged
	}
	report, mutants, unrun := r.x.fold(len(r.res.Batches), f.batch, f.outs, stage)
	r.pending = append(r.pending, mutants...)
	r.pending = append(r.pending, unrun...)
	if report.Runs > 0 {
		r.res.Executed += report.Runs
		r.res.Batches = append(r.res.Batches, report)
		r.gain.observe(report.Runs, len(report.NewBlocks))
		r.x.logf("explore %s: batch %d: %d runs, %d new blocks, %d new bugs, %d mutants bred, recovery %s",
			r.cfg.System, report.Index, report.Runs, len(report.NewBlocks), len(report.NewBugs), len(mutants), report.Recovery)
	}
	err := f.err
	if err == nil {
		err = jerr
	}
	if err == nil {
		r.publishStatus()
	}
	// Journal even a failed batch's drained outcomes; the run error wins.
	if r.store != nil {
		r.job = true
		go r.storeJob()
	}
	return err
}

// staged is one executed candidate of a landed batch and its entry.
type staged struct {
	c *Candidate
	e Entry
}

// storeJob stores the landed batch: it keys each staged candidate that
// has no key yet (a mutant bred while the loop ran) into the run's key
// set, puts its entry and appends the journal. While it runs it alone
// touches the run's store, keys and keyer and the keys of the
// candidates it stores; wait hands them back.
func (r *run) storeJob() {
	for i := range r.staged {
		st := &r.staged[i]
		if st.c.key == "" {
			r.x.keyer.key(st.c)
			r.keys[st.c.key] = true
		}
		r.store.Put(st.c.key, st.e)
	}
	r.jobErr <- r.store.Append(r.keys)
}

// wait waits for the run's store job, if one is running, and returns
// its journal error.
func (r *run) wait() error {
	if !r.job {
		return nil
	}
	r.job = false
	return <-r.jobErr
}

// publishStatus pushes a progress snapshot to the Config.Status hook.
func (r *run) publishStatus() {
	if r.cfg.Status == nil {
		return
	}
	rec := r.x.idx.Recovery(r.x.covered)
	r.cfg.Status(StatusUpdate{
		System:         r.cfg.System,
		Executed:       r.res.Executed,
		Replayed:       r.res.Replayed,
		Bugs:           len(r.x.sigs),
		Covered:        rec.BlocksCovered,
		RecoveryBlocks: rec.Blocks,
		GainPerRun:     r.gain.PerRun,
	})
}

// finish waits for the run's store job, keys every candidate still
// pending, and saves the store — the session's one compaction, on
// completion, budget and cancellation alike, and on the zero-batch
// pure-replay path too, since Save is where entry stamping,
// invalidated-entry pruning, and migrated-entry flushing land on disk —
// then summarizes the run and attaches the store's compaction stats.
// runErr — cancellation or a batch failure — wins over the job's
// journal error, and that over a save error, and the partial Result is
// returned either way so callers can report progress up to the
// interrupt. Runs finish independently of each other.
func (r *run) finish(runErr error) (*Result, error) {
	if err := r.wait(); runErr == nil {
		runErr = err
	}
	if r.store != nil {
		for _, c := range r.pending {
			if c.key == "" {
				r.x.keyer.key(c)
				r.keys[c.key] = true
			}
		}
	}
	// Save records this session's fingerprints, under which an entry a
	// stop left pending would replay as settled though its
	// re-validation never ran. Drop it, and for a changed profile also
	// the other build's entry the next session would adopt: each comes
	// back as a miss.
	for _, c := range r.pending {
		r.store.forget(c.key)
		if r.stale != nil && r.stale.profileChanged(c.Callee) {
			r.store.forget(r.stale.oldKey(c))
		}
	}
	saveErr := r.store.Save(r.keys)
	r.res.Mutants = r.x.spawned
	r.res.Bugs = controller.SortBugs(r.cfg.System, r.x.sigs)
	r.res.Final = r.x.idx.Recovery(r.x.covered)
	r.res.Total = r.x.idx.Total(r.x.covered)
	r.res.Elapsed = time.Since(r.begin)
	if r.store != nil {
		stats := r.store.Stats()
		r.res.StoreStats = &stats
	}
	if runErr != nil {
		return r.res, runErr
	}
	if saveErr != nil {
		return r.res, saveErr
	}
	return r.res, nil
}

// takeBatch removes the size highest-ranked candidates from pending
// and returns them, best first. The rank is score descending, then
// scenario name ascending: a total order (names are unique within a
// run), so the batch is exactly the head of a full sort, while each
// candidate is scored once and only the batch is kept ordered. The
// rest of pending keeps its order, which nothing reads.
func (x *explorer) takeBatch(pending []*Candidate, size int) (batch, rest []*Candidate) {
	size = min(size, len(pending))
	if size <= 0 {
		return nil, pending
	}
	// top holds the best candidates seen so far, best first; a
	// candidate enters by insertion, evicting the last.
	top := x.top[:0]
	for i, c := range pending {
		r := ranked{score: x.score(c), c: c, at: i}
		if len(top) == size && !r.ahead(top[size-1]) {
			continue
		}
		k := len(top)
		if k < size {
			top = append(top, r)
		} else {
			k--
		}
		for ; k > 0 && r.ahead(top[k-1]); k-- {
			top[k] = top[k-1]
		}
		top[k] = r
	}
	x.top = top
	batch = make([]*Candidate, len(top))
	for i, r := range top {
		batch[i] = r.c
		pending[r.at] = nil
	}
	rest = pending[:0]
	for _, c := range pending {
		if c != nil {
			rest = append(rest, c)
		}
	}
	clear(pending[len(rest):])
	return batch, rest
}

// ranked is a scored pending candidate and its index in pending.
type ranked struct {
	score float64
	c     *Candidate
	at    int
}

// ahead reports whether r ranks before o.
func (r ranked) ahead(o ranked) bool {
	if r.score != o.score {
		return r.score > o.score
	}
	return r.c.name < o.c.name
}

// fold folds one landed batch's outcomes into the scheduler state:
// coverage and failure deltas and window mutants, and stages each
// executed candidate with its store entry on stage (nil: no store).
// Every completed outcome is folded even when the dispatch returned an
// error — that is how a cancelled batch's drained remote responses land
// in the store — and candidates the fleet never ran come back as unrun
// for the caller to requeue. It also returns the window mutants bred
// from this batch's worthy occurrence/window outcomes.
func (x *explorer) fold(index int, batch []*Candidate, outs []*exec.Outcome, stage *[]staged) (report BatchReport, mutants, unrun []*Candidate) {
	report = BatchReport{Index: index}
	// Delta attribution is sequential in batch order, so results are
	// independent of backend routing and worker interleaving — the
	// executor equivalence property makes the outcomes themselves
	// backend-independent.
	for i, c := range batch {
		var out *exec.Outcome
		if i < len(outs) {
			out = outs[i]
		}
		if out == nil {
			unrun = append(unrun, c)
			continue
		}
		report.Runs++
		// The entry records the run's full covered footprint (not just
		// recovery blocks), so a resumed run reconstructs total
		// coverage too, as an owned copy of the outcome's bitset over
		// idx: nothing wire- or scratch-backed is retained. The failure
		// signature was computed where the run executed — it needs the
		// injection log, which stays with the worker.
		entry := Entry{Name: c.name, Injections: out.Injections}
		if out.CovU != nil {
			entry.cov, entry.table = out.Cov.Clone(), x.table
		}
		x.covered.FoldNew(out.Cov, x.idx.Recoveries(), func(p int) {
			report.NewBlocks = append(report.NewBlocks, x.idx.ID(p))
			x.reward(c.Callee)
		})

		if out.Signature != "" {
			entry.Failed, entry.Signature = true, out.Signature
			if _, known := x.sigs[out.Signature]; !known {
				report.NewBugs = append(report.NewBugs, out.Signature)
				x.reward(c.Callee)
			}
			x.sigs[out.Signature] = append(x.sigs[out.Signature], c.name)
		}
		if stage != nil {
			*stage = append(*stage, staged{c, entry})
		}
		if x.mutationWorthy(entry, entry.cov) {
			mutants = append(mutants, x.mutate(c, entry.Failed)...)
		}
	}
	// The fold copied everything it keeps (entries own their bitsets;
	// signatures are strings), so the decoded outcomes can go back to
	// the wire pool for the next batch.
	exec.Recycle(outs)
	sort.Strings(report.NewBlocks)
	report.Recovery = x.idx.Recovery(x.covered)
	return report, mutants, unrun
}

func candidateKeys(cands []*Candidate) map[string]bool {
	keys := make(map[string]bool, len(cands))
	for _, c := range cands {
		keys[c.key] = true
	}
	return keys
}
