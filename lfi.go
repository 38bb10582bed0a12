// Package lfi is a Go reproduction of "An Extensible Technique for
// High-Precision Testing of Recovery Code" (Marinescu, Banabic & Candea,
// USENIX ATC 2010) — the LFI library-level fault injector.
//
// The package re-exports the public surface of the toolchain:
//
//   - System / Systems / LookupSystem / RegisterSystem — the target
//     registry: every testable system self-describes with a descriptor
//     (binary, controller targets, library profiles, workload, stock
//     bugs) and registers itself database/sql-driver style, so engines
//     and tools never enumerate targets by hand;
//   - Session / NewSession — the unified, context-aware test driver:
//     functional options (WithStore, WithWorkers, WithBudget, WithSeed,
//     WithExecutors, …) configure one session whose Run, Explore and
//     ExploreAll methods stream outcomes, cancel cleanly, and fan out
//     over every registered system (`lfi explore -all`);
//   - Executor / NewLocalExecutor / NewPoolExecutor / DialExecutor /
//     ServeExecutor — the pluggable execution backends: batches run on
//     the in-process pool, in crash-isolating worker subprocesses, or
//     on remote `lfi serve` workers, scheduled by a per-system cost
//     model with identical results on every backend;
//   - Scenario / ParseScenario / NewScenarioBuilder — the XML fault
//     injection language (§4);
//   - Trigger / RegisterTrigger / TriggerArgs — the extensible trigger
//     framework and its registry (§3);
//   - Runtime / NewRuntime — the injection engine that splices into a
//     simulated process (§2, §6);
//   - Analyzer / GenerateScenarios — the call-site analyzer (§5);
//   - ProfileBinary — the automated library profiler (§2).
//
// The substrates (simulated C library, synthetic ISA, PBFT, target
// applications) live under internal/; see DESIGN.md ("Public API: the
// system registry and sessions") for the architecture and
// EXPERIMENTS.md for the paper-vs-measured results.
package lfi

import (
	"fmt"
	"io"

	"lfi/internal/callsite"
	"lfi/internal/cfg"
	"lfi/internal/controller"
	"lfi/internal/core"
	"lfi/internal/errno"
	"lfi/internal/exec"
	"lfi/internal/explore"
	"lfi/internal/impact"
	"lfi/internal/interpose"
	"lfi/internal/isa"
	"lfi/internal/libsim"
	"lfi/internal/profile"
	"lfi/internal/scenario"
	"lfi/internal/trigger"

	// Register every built-in target system with the registry, so
	// facade users always see the full set.
	_ "lfi/internal/system/all"
)

// Core runtime.
type (
	// Runtime is the compiled, installable injection engine.
	Runtime = core.Runtime
	// Option configures a Runtime.
	Option = core.Option
	// Log is the injection log.
	Log = core.Log
	// Record is one logged injection.
	Record = core.Record
)

// Runtime constructors and options.
var (
	// NewRuntime compiles a scenario for a simulated process.
	NewRuntime = core.New
	// RuntimeSeed makes a Runtime's Random triggers reproducible. (It
	// was exported as WithSeed before the Session API claimed that
	// name; sessions seed every run they own via the WithSeed session
	// option instead.)
	RuntimeSeed = core.WithSeed
	// WithDecider installs a distributed-trigger central controller.
	WithDecider = core.WithDecider
	// WithMaxInjections bounds the number of injected faults.
	WithMaxInjections = core.WithMaxInjections
)

// Scenario language.
type (
	// Scenario is a parsed fault injection scenario.
	Scenario = scenario.Scenario
	// ScenarioBuilder assembles scenarios programmatically.
	ScenarioBuilder = scenario.Builder
)

// ParseScenario reads a scenario XML document.
func ParseScenario(r io.Reader) (*Scenario, error) { return scenario.Parse(r) }

// ParseScenarioString reads a scenario from a string.
func ParseScenarioString(doc string) (*Scenario, error) { return scenario.ParseString(doc) }

// NewScenarioBuilder starts a programmatic scenario.
func NewScenarioBuilder(name string) *ScenarioBuilder { return scenario.NewBuilder(name) }

// Trigger framework.
type (
	// Trigger is the paper's Trigger interface (Init/Eval).
	Trigger = trigger.Trigger
	// TriggerArgs is the parsed <args> tree passed to Init.
	TriggerArgs = trigger.Args
	// TriggerBase provides the no-op Init and Env plumbing.
	TriggerBase = trigger.Base
	// Call describes one intercepted library call.
	Call = interpose.Call
	// Frame is one virtual stack frame.
	Frame = interpose.Frame
)

// RegisterTrigger adds a custom trigger class to the global registry.
var RegisterTrigger = trigger.Register

// TriggerClasses lists all registered trigger classes.
var TriggerClasses = trigger.Classes

// Process simulation.
type (
	// Process is a simulated process image (the C library instance).
	Process = libsim.C
	// Thread is a simulated POSIX thread with errno and a virtual stack.
	Thread = libsim.Thread
	// Crash is an abnormal termination of a simulated program.
	Crash = libsim.Crash
	// Errno is a simulated C errno value.
	Errno = errno.Errno
)

// NewProcess creates a process image with the given heap capacity.
var NewProcess = libsim.New

// Common open(2) flags and errno values, re-exported so facade users
// can drive simulated programs without reaching into internal/.
const (
	O_RDONLY = libsim.O_RDONLY
	O_WRONLY = libsim.O_WRONLY
	O_CREAT  = libsim.O_CREAT

	EINTR  = errno.EINTR
	EIO    = errno.EIO
	ENOMEM = errno.ENOMEM
)

// Binary analyses.
type (
	// Analyzer runs the call site analysis (Algorithm 1).
	Analyzer = callsite.Analyzer
	// SiteReport is one analyzed call site.
	SiteReport = callsite.Site
	// LibraryProfile is a library fault profile.
	LibraryProfile = profile.Profile
)

var (
	// ProfileBinary infers a library's fault profile from its binary.
	ProfileBinary = profile.ProfileBinary
	// GenerateScenarios emits injection scenarios for vulnerable sites.
	GenerateScenarios = callsite.GenerateScenarios
	// GenerateExercise emits recovery-exercising scenarios for checked sites.
	GenerateExercise = callsite.GenerateExercise
)

// Test controller.
type (
	// Target describes a program under test.
	Target = controller.Target
	// Outcome is one test run's observed result.
	Outcome = controller.Outcome
	// Bug is a deduplicated failure signature.
	Bug = controller.Bug
)

var (
	// DistinctBugs deduplicates campaign failures.
	DistinctBugs = controller.DistinctBugs
	// FailureSignature computes a failed outcome's dedup signature.
	FailureSignature = controller.FailureSignature
)

// Execution backends. A Session runs batches through one or more
// executors: the default in-process pool, crash-isolating subprocess
// pools, or remote `lfi serve` workers reached over TCP. All backends
// produce byte-identical outcomes for the same batch and seed, so the
// mix changes throughput, never results.
type (
	// Executor is a pluggable execution backend (local / pool /
	// remote) a Session dispatches test batches to.
	Executor = exec.Executor
	// ExecutorInfo is an executor's capability and cost metadata.
	ExecutorInfo = exec.Info
	// ExecBatch is one dispatch unit: scenarios + system + seed.
	ExecBatch = exec.Batch
	// ProtoMismatchError reports a remote worker whose wire protocol
	// version differs from this build's (there is exactly one). Fleet
	// assembly should drop the worker (it needs a rebuild), not abort
	// the campaign.
	ProtoMismatchError = exec.ProtoMismatchError
	// ExecOutcome is one run's serializable, backend-independent
	// result.
	ExecOutcome = exec.Outcome
	// CostModel is a system's persisted execution economics (EWMA
	// runs/sec per backend, coverage gain per run) — the scheduling
	// signal behind Session.ExploreAll and the fleet's batch routing.
	CostModel = exec.CostModel
)

var (
	// NewLocalExecutor returns the in-process backend (the default).
	NewLocalExecutor = exec.NewLocal
	// NewPoolExecutor starts a pool of crash-isolating worker
	// subprocesses, each driven by the same wire-protocol client
	// DialExecutor returns, over the worker's stdin/stdout — so a
	// cancelled pool run stops promptly, like a remote one. The calling
	// binary must invoke MaybeExecWorker first thing in main (cmd/lfi
	// does) or TestMain.
	NewPoolExecutor = exec.NewPool
	// DialExecutor connects to an `lfi serve` worker.
	DialExecutor = exec.Dial
	// ServeExecutor accepts executor connections on a listener — the
	// engine behind `lfi serve`.
	ServeExecutor = exec.Serve
	// MaybeExecWorker turns the current process into an execution
	// worker when the worker environment hooks are set; call it first
	// thing in main or TestMain to make a binary pool-capable.
	MaybeExecWorker = exec.MaybeWorker
)

// Fault-space exploration.
type (
	// ExploreConfig parametrizes a coverage-guided exploration run.
	ExploreConfig = explore.Config
	// ExploreResult is an exploration run's outcome.
	ExploreResult = explore.Result
	// ExploreAllResult is a cross-system exploration's outcome — the
	// Session.ExploreAll / `lfi explore -all` shape.
	ExploreAllResult = explore.MultiResult
	// ExploreCandidate is one proposed injection experiment.
	ExploreCandidate = explore.Candidate
	// StoreStats is a persistent store's compaction summary (shards,
	// retained image versions, entries migrated vs invalidated).
	StoreStats = explore.StoreStats
	// ImpactSummary reports what the change-impact plan did on an
	// -impact resume: functions diffed, recovery blocks reached,
	// entries migrated intact vs queued for re-validation
	// (ExploreResult.Impact; see WithImpact).
	ImpactSummary = explore.ImpactSummary
	// DiffReport classifies the cached candidate space against a code
	// edit without executing anything — the `lfi diff` shape (see
	// Session.Diff).
	DiffReport = explore.DiffReport
	// LintReport is the whole-program interprocedural analysis of one
	// system — the `lfi lint` shape (see Session.Lint).
	LintReport = explore.LintReport
	// LintSite is one classified library call site in a LintReport.
	LintSite = explore.LintSite
)

// DefaultAnalysisWindow is the paper's post-call analysis window (§5):
// the number of instructions the windowed Algorithm 1 walks after a
// library call. cmd/lfi-analyzer resolves `-window 0` to it.
const DefaultAnalysisWindow = cfg.DefaultWindow

// GenerateCandidates enumerates the candidate fault space.
var GenerateCandidates = explore.Generate

// PatchSystem returns a copy of sys whose program image has fn's inert
// prologue immediate flipped — a one-function code edit that moves that
// function's fingerprint (and the image version) without changing any
// behavior. It exists to exercise the incremental re-exploration
// workflow end to end (`lfi explore -patch`, the CI incremental-smoke
// job): explore, patch, re-explore with WithImpact, and watch only the
// entries the edit can reach re-execute. Patching the same function
// twice restores the original image. The returned descriptor is a
// detached copy, not registered.
func PatchSystem(sys *System, fn string) (*System, error) {
	bin, _ := sys.Binary()
	if _, err := impact.PatchFunc(bin, fn); err != nil {
		return nil, fmt.Errorf("lfi: patching %s: %w", sys.Name, err)
	}
	ns := *sys
	orig := sys.Binary
	ns.Binary = func() (*isa.Binary, map[string]uint64) {
		b, offs := orig()
		pb, err := impact.PatchFunc(b, fn)
		if err != nil {
			return b, offs // validated above; cannot happen
		}
		return pb, offs
	}
	return &ns, nil
}
