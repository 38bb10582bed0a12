// Command lfi is the LFI controller (§2): it takes an injection
// scenario (XML file or the analyzer's generated set), conducts a test
// against one of the registered target systems, and prints the outcome
// and the injection log. Targets come from the system registry
// (internal/system): every -app value and usage string is enumerated
// from it, so a newly registered system is immediately drivable with no
// command changes.
//
// Usage:
//
//	lfi -app minivcs -scenario fail-read.xml
//	lfi -app minidns -auto           # run all analyzer-generated scenarios
//	lfi -app minidb -auto -v         # verbose: print every injection log
//
// The explore subcommand runs the coverage-guided fault-space explorer
// instead of a fixed scenario list: it enumerates candidate injections
// from the library fault profiles and the call-site analysis,
// prioritizes them by which uncovered recovery blocks they can reach,
// and persists outcomes so a second run resumes incrementally:
//
//	lfi explore -app minidb
//	lfi explore -app pbft -store .lfi-store -budget 200 -v
//	lfi explore -all -store .lfi-store       # every registered system
//	lfi explore -app minidb,minivcs -budget 500
//
// With -all (or a comma-separated -app list) one session fans out over
// the systems with a shared backend fleet, a shared store root and a
// shared budget, interleaving batches across systems by expected new
// recovery blocks per run, scored from outcomes alone, so a budgeted
// split is the same under any -j, -pool or remote mix. Ctrl-C cancels
// cleanly: in-flight tests finish, every store is flushed (no torn
// snapshots), and the next run resumes with zero re-execution. -v adds
// per-batch progress and the per-store compaction stats (shards,
// retained image versions, entries migrated vs invalidated).
//
// Resumes are diff-aware. Every campaign records the image's
// per-function code fingerprints and the library fault-profile
// fingerprints in the store; after a code change the next explore
// diffs the new binary against them, walks the CFG to the recovery
// blocks the edit can reach, migrates cached outcomes whose coverage
// the edit provably cannot touch, and re-executes only the rest
// (falling back to whole-shard invalidation whenever the edit cannot
// be bounded); after a fault-profile edit it re-executes the changed
// callees' cached outcomes. The diff subcommand previews that
// classification without running anything, and -patch applies an
// inert one-function edit for exercising the workflow end to end:
//
//	lfi explore -app minidb -store .lfi-store
//	lfi diff    -app minidb -store .lfi-store -patch errmsg_load
//	lfi explore -app minidb -store .lfi-store -patch errmsg_load -v
//
// The analyze and profile subcommands expose the two static analyses
// behind the explorer: the call-site analyzer (§5, Algorithm 1), which
// classifies every library call site as checked / partially checked /
// unchecked and generates scenarios for the vulnerable ones, and the
// library profiler (§2), which infers a library's fault profile XML
// from its binary:
//
//	lfi analyze -app minivcs               # classify all sites
//	lfi analyze -app minidns -scenarios    # also emit scenario XML
//	lfi analyze -app pbft -dis             # dump the disassembly to stderr
//	lfi profile -lib libc                  # libraries: libc, libxml, libapr
//	lfi profile -lib libc -dis
//
// Execution backends are pluggable. The serve subcommand turns this
// binary into a remote test-execution worker speaking the
// length-prefixed wire protocol over TCP:
//
//	lfi serve -addr :7411 -j 8
//
// and explore fans batches across any mix of backends:
//
//	lfi explore -all -workers-remote host1:7411,host2:7411
//	lfi explore -app minidb -pool 4     # crash-isolating subprocess pool
//
// On Ctrl-C, pool and remote workers stop after their in-flight runs
// and hand back the completed prefix; a worker killed mid-batch has
// its unfinished runs requeued on the surviving backends.
//
// Fleet service mode removes the hand-maintained worker list entirely.
// A registry process coordinates the cluster, workers announce
// themselves to it, and explorers discover whatever is alive:
//
//	lfi fleet registry -addr :7410
//	lfi serve -addr :0 -register host:7410      # on every worker box
//	lfi explore -all -fleet host:7410
//	lfi fleet status -registry host:7410        # live throughput + campaign progress
//
// Workers that join mid-campaign are dialed and used; workers that miss
// heartbeats are evicted and their in-flight batches requeue on the
// survivors. A worker gets only the batches of systems it runs as the
// explorer's own image: one built from another commit sits idle for
// the systems that differ, and if no backend runs a system's image
// the explore fails with an error naming each worker and its image.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"lfi"
	"lfi/internal/system"
)

// appsUsage enumerates the registered systems for usage/error text.
func appsUsage() string { return strings.Join(lfi.SystemNames(), ", ") }

// lookupApps resolves a comma-separated -app list against the registry
// (duplicates collapsed), exiting with the registry's contents on an
// unknown name.
func lookupApps(list string) []*lfi.System {
	var systems []*lfi.System
	seen := make(map[string]bool)
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" || seen[name] {
			continue
		}
		seen[name] = true
		sys, ok := lfi.LookupSystem(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "lfi: unknown target %q (registered: %s)\n", name, appsUsage())
			os.Exit(2)
		}
		systems = append(systems, sys)
	}
	if len(systems) == 0 {
		fmt.Fprintf(os.Stderr, "lfi: no target given (registered: %s)\n", appsUsage())
		os.Exit(2)
	}
	return systems
}

// interruptible is the Ctrl-C contract: SIGINT/SIGTERM cancel the
// context; sessions finish in-flight tests, flush their stores, and
// return the partial result with context.Canceled.
func interruptible() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// newSession builds a session or exits with the validation error.
func newSession(opts ...lfi.SessionOption) *lfi.Session {
	sess, err := lfi.NewSession(opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfi:", err)
		os.Exit(2)
	}
	return sess
}

// executorOpts translates the backend flags (-pool, -workers-remote)
// into session options: the local pool always participates unless
// -no-local is set, subprocess/remote backends join the mix. haveFleet
// relaxes the at-least-one-backend rule: with -fleet the session
// discovers workers from the registry, so an empty explicit list is
// legitimate.
func executorOpts(jobs, pool int, remotes string, noLocal, haveFleet bool) []lfi.SessionOption {
	var execs []lfi.Executor
	if !noLocal {
		execs = append(execs, lfi.NewLocalExecutor(jobs))
	}
	if pool > 0 {
		p, err := lfi.NewPoolExecutor(pool)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lfi: -pool:", err)
			os.Exit(2)
		}
		execs = append(execs, p...)
	}
	for _, addr := range strings.Split(remotes, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		r, err := lfi.DialExecutor(addr)
		if err != nil {
			// A worker speaking the wrong protocol version just needs a
			// rebuild: drop it with a warning and keep the campaign on
			// the remaining backends. Anything else (refused connection,
			// bad address) is a configuration error and still fatal.
			var pm *lfi.ProtoMismatchError
			if errors.As(err, &pm) {
				fmt.Fprintln(os.Stderr, "lfi: -workers-remote: skipping:", err)
				continue
			}
			fmt.Fprintln(os.Stderr, "lfi: -workers-remote:", err)
			os.Exit(2)
		}
		execs = append(execs, r)
	}
	if len(execs) == 0 {
		if haveFleet {
			return []lfi.SessionOption{lfi.WithWorkers(jobs)}
		}
		fmt.Fprintln(os.Stderr, "lfi: -no-local needs at least one -pool, -workers-remote or -fleet backend")
		os.Exit(2)
	}
	return []lfi.SessionOption{lfi.WithExecutors(execs...), lfi.WithWorkers(jobs)}
}

// patchSystems applies the inert one-function -patch edit to every
// listed system in place, exiting on an unknown function name.
func patchSystems(systems []*lfi.System, fn string) {
	if fn == "" {
		return
	}
	for i, sys := range systems {
		ps, err := lfi.PatchSystem(sys, fn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lfi: -patch:", err)
			os.Exit(2)
		}
		systems[i] = ps
	}
}

// runDiff implements `lfi diff`: classify the cached candidate space
// against the current (optionally -patch'ed) binary without executing a
// single test or writing the store.
func runDiff(args []string) {
	fs := flag.NewFlagSet("lfi diff", flag.ExitOnError)
	app := fs.String("app", "", "target system(s), comma-separated: "+appsUsage())
	store := fs.String("store", "", "campaign store root to diff against (required)")
	patch := fs.String("patch", "", "flip this `function`'s inert prologue immediate before diffing")
	fs.Parse(args)
	if *store == "" {
		fmt.Fprintln(os.Stderr, "lfi diff: need -store (nothing to diff without a campaign store)")
		os.Exit(2)
	}
	systems := lookupApps(*app)
	patchSystems(systems, *patch)
	sess := newSession(lfi.WithStore(*store))
	defer sess.Close()
	for _, sys := range systems {
		rep, err := sess.Diff(sys)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lfi diff:", err)
			os.Exit(1)
		}
		fmt.Print(rep)
	}
}

// runLint implements `lfi lint`: the whole-program interprocedural
// error-propagation analysis, registry-resolved, no test executed. With
// -store, per-function summaries persist next to the campaign's
// manifests, so linting after a -patch edit recomputes only the changed
// function and its call-graph ancestors.
func runLint(args []string) {
	fs := flag.NewFlagSet("lfi lint", flag.ExitOnError)
	app := fs.String("app", "", "target system(s), comma-separated (default: every registered system): "+appsUsage())
	store := fs.String("store", "", "campaign store root to persist summaries in (optional)")
	patch := fs.String("patch", "", "flip this `function`'s inert prologue immediate before linting")
	asJSON := fs.Bool("json", false, "emit one JSON report per system instead of text")
	fs.Parse(args)
	systems := lfi.Systems()
	if *app != "" {
		systems = lookupApps(*app)
	}
	patchSystems(systems, *patch)
	sess := newSession(lfi.WithStore(*store))
	defer sess.Close()
	for _, sys := range systems {
		rep, err := sess.Lint(sys)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lfi lint:", err)
			os.Exit(1)
		}
		if *asJSON {
			out, err := json.Marshal(rep)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lfi lint:", err)
				os.Exit(1)
			}
			fmt.Printf("%s\n", out)
			continue
		}
		fmt.Print(rep)
	}
}

// runAnalyze implements `lfi analyze`: the call-site analyzer (§5,
// Algorithm 1) over registered application binaries, classifying every
// library call site and optionally emitting the injection scenarios
// aimed at the vulnerable ones.
func runAnalyze(args []string) {
	fs := flag.NewFlagSet("lfi analyze", flag.ExitOnError)
	app := fs.String("app", "minivcs", "application binary (or comma-separated list): "+appsUsage())
	emit := fs.Bool("scenarios", false, "emit generated injection scenarios (XML) for C_not and C_part")
	dis := fs.Bool("dis", false, "dump the binary disassembly to stderr")
	fs.Parse(args)
	for _, sys := range lookupApps(*app) {
		bin, _ := sys.Binary()
		if *dis {
			fmt.Fprintln(os.Stderr, bin.Disassemble())
		}
		profs := sys.Profiles()
		a := &lfi.Analyzer{}
		rep := a.Analyze(bin, profs...)
		yes, part, not := rep.ByClass()
		fmt.Printf("%s: %d call sites: %d checked, %d partially checked, %d unchecked\n\n",
			bin.Name, len(rep.Sites), len(yes), len(part), len(not))
		for _, s := range rep.Sites {
			flagStr := ""
			if s.Indirect {
				flagStr = " [indirect branches near site]"
			}
			fmt.Printf("%6x  %-10s in %-22s %-9s eq=%v ineq=%v missing=%v%s\n",
				s.Offset, s.Callee, s.Caller, s.Class, s.ChkEq, s.ChkIneq, s.Missing, flagStr)
		}
		if *emit {
			scens := lfi.GenerateScenarios(bin, append(not, part...), profs...)
			fmt.Printf("\n%d generated scenarios:\n\n", len(scens))
			for _, s := range scens {
				os.Stdout.Write(s.Serialize())
				fmt.Println()
			}
		}
	}
}

// runProfile implements `lfi profile`: the automated library profiler
// (§2) statically analyzes a simulated library binary and prints its
// fault profile XML (error return values and errno side effects per
// exported function). Libraries come from the system registry's
// library table.
func runProfile(args []string) {
	fs := flag.NewFlagSet("lfi profile", flag.ExitOnError)
	lib := fs.String("lib", "libc", "library to profile: "+strings.Join(system.Libraries(), ", "))
	dis := fs.Bool("dis", false, "dump the library disassembly to stderr")
	fs.Parse(args)
	bin, ok := system.BuildLibrary(*lib)
	if !ok {
		fmt.Fprintf(os.Stderr, "lfi profile: unknown library %q (have: %s)\n",
			*lib, strings.Join(system.Libraries(), ", "))
		os.Exit(2)
	}
	if *dis {
		fmt.Fprintln(os.Stderr, bin.Disassemble())
	}
	os.Stdout.Write(lfi.ProfileBinary(bin).Serialize())
}

// runServe implements `lfi serve`: this process becomes a remote test
// execution worker for `lfi explore -workers-remote`, or — with
// -register — a self-registering member of a fleetd cluster that
// `lfi explore -fleet` discovers without being handed any address.
func runServe(args []string) {
	fs := flag.NewFlagSet("lfi serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7411", "TCP listen address")
	jobs := fs.Int("j", runtime.GOMAXPROCS(0), "worker pool size for batches this worker executes")
	register := fs.String("register", "", "fleet registry `host:port` to self-register with (see `lfi fleet registry`)")
	advertise := fs.String("advertise", "", "dial-back `address` announced to the registry (default: the listen address)")
	verbose := fs.Bool("v", false, "log connections and registry traffic")
	fs.Parse(args)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfi serve:", err)
		os.Exit(1)
	}
	ctx, cancel := interruptible()
	defer cancel()
	fmt.Printf("listening %s\n", ln.Addr())
	fmt.Fprintf(os.Stderr, "lfi serve: %d workers, systems: %s\n", *jobs, appsUsage())
	if *register != "" {
		fmt.Fprintf(os.Stderr, "lfi serve: registering with fleet registry %s\n", *register)
	}
	var logw io.Writer
	if *verbose {
		logw = os.Stderr
	}
	err = lfi.ServeRegistered(ctx, ln, *jobs, logw, *register, *advertise)
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "lfi serve: interrupted")
		os.Exit(130)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfi serve:", err)
		os.Exit(1)
	}
}

// runFleet implements `lfi fleet`: the registry process and the status
// reader of fleet service mode.
func runFleet(args []string) {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "lfi fleet: need a verb: registry (run the coordinator) or status (query one)")
		os.Exit(2)
	}
	switch args[0] {
	case "registry":
		runFleetRegistry(args[1:])
	case "status":
		runFleetStatus(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "lfi fleet: unknown verb %q (want registry or status)\n", args[0])
		os.Exit(2)
	}
}

// runFleetRegistry runs the fleetd coordinator: workers register with
// it (`lfi serve -register`), explorers discover them from it
// (`lfi explore -fleet`), and anyone can read the merged status.
func runFleetRegistry(args []string) {
	fs := flag.NewFlagSet("lfi fleet registry", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7410", "TCP listen address")
	heartbeat := fs.Duration("heartbeat", lfi.DefaultFleetHeartbeat, "heartbeat interval assigned to workers")
	miss := fs.Int("miss", lfi.DefaultFleetMiss, "missed heartbeats before a worker is evicted")
	fs.Parse(args)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfi fleet registry:", err)
		os.Exit(1)
	}
	ctx, cancel := interruptible()
	defer cancel()
	fmt.Printf("listening %s\n", ln.Addr())
	fmt.Fprintf(os.Stderr, "lfi fleet registry: heartbeat %v, eviction after %d missed\n", *heartbeat, *miss)
	err = lfi.NewFleetRegistry(*heartbeat, *miss).Serve(ctx, ln, os.Stderr)
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "lfi fleet registry: interrupted")
		os.Exit(130)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfi fleet registry:", err)
		os.Exit(1)
	}
}

// runFleetStatus prints a registry's merged status: the live worker set
// with throughput derived from heartbeats, and the latest campaign
// snapshot a coordinator published.
func runFleetStatus(args []string) {
	fs := flag.NewFlagSet("lfi fleet status", flag.ExitOnError)
	registry := fs.String("registry", "", "fleet registry `host:port` to query (required)")
	asJSON := fs.Bool("json", false, "print the raw status document as JSON")
	fs.Parse(args)
	if *registry == "" {
		fmt.Fprintln(os.Stderr, "lfi fleet status: need -registry")
		os.Exit(2)
	}
	st, err := lfi.FleetStatus(*registry)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfi fleet status:", err)
		os.Exit(1)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(st)
		return
	}
	fmt.Printf("registry %s: %d worker(s) live, heartbeat %v, %d evicted\n",
		*registry, len(st.Workers), time.Duration(st.HeartbeatMS)*time.Millisecond, st.Evicted)
	for _, w := range st.Workers {
		fmt.Printf("  %-4s %-22s cap %d proto %d  %7.1f runs/s  %d runs / %d batches / %d cancelled  last seen %s ago\n",
			w.ID, w.Addr, w.Capacity, w.Proto, w.RunsPerSec,
			w.Stats.Runs, w.Stats.Batches, w.Stats.Cancels,
			st.Now.Sub(w.LastSeen).Round(time.Millisecond))
	}
	if st.Campaign == nil {
		fmt.Println("no campaign published")
		return
	}
	fmt.Printf("campaign %s (updated %s ago):\n",
		st.Campaign.Session, st.Now.Sub(st.Campaign.Updated).Round(time.Millisecond))
	names := make([]string, 0, len(st.Campaign.Systems))
	for name := range st.Campaign.Systems {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ss := st.Campaign.Systems[name]
		fmt.Printf("  %-10s %d executed, %d replayed, %d bugs, %d blocks covered (%d recovery), gain/run %.3f\n",
			name, ss.Executed, ss.Replayed, ss.Bugs, ss.Covered, ss.RecoveryBlocks, ss.GainPerRun)
	}
}

// runExplore implements `lfi explore`.
func runExplore(args []string) {
	fs := flag.NewFlagSet("lfi explore", flag.ExitOnError)
	app := fs.String("app", "minidb", "target system(s), comma-separated: "+appsUsage())
	all := fs.Bool("all", false, "explore every registered system in one session")
	store := fs.String("store", "", "persistent campaign store root (one directory per system); resumes incrementally")
	budget := fs.Int("budget", 0, "max executed test runs, total across systems (0 = explore everything)")
	jobs := fs.Int("j", runtime.GOMAXPROCS(0), "local campaign worker pool size (1 = sequential)")
	pool := fs.Int("pool", 0, "add a crash-isolating pool of this many worker subprocesses")
	remotes := fs.String("workers-remote", "", "comma-separated host:port list of `lfi serve` workers to fan batches across")
	fleet := fs.String("fleet", "", "fleet registry `host:port`; discover self-registered `lfi serve -register` workers and follow joins/evictions for the whole campaign")
	noLocal := fs.Bool("no-local", false, "run batches only on -pool/-workers-remote/-fleet backends")
	seed := fs.Int64("seed", 0, "runtime random seed")
	patch := fs.String("patch", "", "flip this `function`'s inert prologue immediate before exploring (exercises the diff-aware resume end to end)")
	verbose := fs.Bool("v", false, "print per-batch progress and per-store compaction stats")
	fs.Parse(args)

	var systems []*lfi.System
	if *all {
		systems = lfi.Systems()
	} else {
		systems = lookupApps(*app)
	}
	patchSystems(systems, *patch)

	opts := []lfi.SessionOption{
		lfi.WithStore(*store),
		lfi.WithSeed(*seed),
	}
	if *budget > 0 {
		opts = append(opts, lfi.WithBudget(*budget))
	}
	if *verbose {
		opts = append(opts, lfi.WithLog(os.Stderr))
	}
	if *fleet != "" {
		opts = append(opts, lfi.WithFleet(*fleet))
	}
	opts = append(opts, executorOpts(*jobs, *pool, *remotes, *noLocal, *fleet != "")...)
	sess := newSession(opts...)
	defer sess.Close()
	if *verbose {
		for _, info := range sess.Executors() {
			fmt.Fprintf(os.Stderr, "lfi explore: backend %s (capacity %d, isolated %v)\n", info.Name, info.Capacity, info.Isolated)
		}
	}
	ctx, cancel := interruptible()
	defer cancel()

	res, err := sess.ExploreAll(ctx, systems...)
	if res != nil {
		fmt.Print(res)
		for _, r := range res.Results {
			if *verbose && r.StoreStats != nil {
				fmt.Printf("  %s\n", r.StoreStats)
			}
		}
	}
	switch {
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "lfi explore: interrupted — stores flushed; rerun to resume with no re-execution")
		os.Exit(130)
	case err != nil:
		fmt.Fprintln(os.Stderr, "lfi explore:", err)
		os.Exit(1)
	}
}

func main() {
	// Become a pool worker when re-executed by NewPoolExecutor; no-op
	// otherwise.
	lfi.MaybeExecWorker()
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "explore":
			runExplore(os.Args[2:])
			return
		case "diff":
			runDiff(os.Args[2:])
			return
		case "lint":
			runLint(os.Args[2:])
			return
		case "analyze":
			runAnalyze(os.Args[2:])
			return
		case "profile":
			runProfile(os.Args[2:])
			return
		case "serve":
			runServe(os.Args[2:])
			return
		case "fleet":
			runFleet(os.Args[2:])
			return
		}
	}
	app := flag.String("app", "minivcs", "target system: "+appsUsage())
	scenFile := flag.String("scenario", "", "injection scenario XML file")
	auto := flag.Bool("auto", false, "generate scenarios with the call-site analyzer and run them all")
	verbose := flag.Bool("v", false, "print each run's injection log")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "campaign worker pool size (1 = sequential)")
	flag.Parse()

	sys, ok := lfi.LookupSystem(*app)
	if !ok {
		fmt.Fprintf(os.Stderr, "lfi: unknown target %q (registered: %s)\n", *app, appsUsage())
		os.Exit(2)
	}

	var scens []*lfi.Scenario
	switch {
	case *scenFile != "":
		f, err := os.Open(*scenFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lfi:", err)
			os.Exit(1)
		}
		s, err := lfi.ParseScenario(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "lfi:", err)
			os.Exit(1)
		}
		scens = append(scens, s)
	case *auto:
		bin, _ := sys.Binary()
		profs := sys.Profiles()
		a := &lfi.Analyzer{}
		rep := a.Analyze(bin, profs...)
		yes, part, not := rep.ByClass()
		scens = lfi.GenerateScenarios(bin, append(not, part...), profs...)
		scens = append(scens, lfi.GenerateExercise(bin, yes, profs...)...)
		fmt.Printf("analyzer generated %d scenarios for %s\n", len(scens), bin.Name)
	default:
		fmt.Fprintln(os.Stderr, "lfi: need -scenario FILE or -auto")
		os.Exit(2)
	}

	ctx, cancel := interruptible()
	defer cancel()
	sess := newSession(lfi.WithWorkers(*jobs))
	defer sess.Close()
	rep, err := sess.Run(ctx, sys, scens)
	if err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "lfi:", err)
		os.Exit(1)
	}
	for _, o := range rep.Outcomes {
		fmt.Println(o)
		if *verbose && o.Log != nil && o.Log.Len() > 0 {
			fmt.Print(o.Log)
		}
	}
	fmt.Printf("\n%d/%d runs failed; %d distinct failure signatures:\n", rep.Failures, len(rep.Outcomes), len(rep.Bugs))
	for _, b := range rep.Bugs {
		fmt.Printf("  %s (%d scenarios)\n", b.Signature, len(b.Scenarios))
	}
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "lfi: interrupted")
		os.Exit(130)
	}
}
