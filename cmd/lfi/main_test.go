package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"lfi"
	"lfi/internal/profile"
)

// These tests drive the built lfi binary the way a user does: each
// subcommand's flags, exit codes and printed format. What the engines
// compute is pinned elsewhere — stock-bug rediscovery by the root
// conformance test, lint tallies by its goldens, diff-aware resume
// counts by internal/explore's impact tests, eviction and requeue by
// TestFleetServiceSelfRegistration — so nothing here re-asserts it,
// except that TestExplorePool pins the subprocess pool to the local
// backend's minidb figures and TestExploreAllCoverage pins the printed
// coverage lines.

// lfiBin is the binary TestMain builds once for every test.
var lfiBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "lfi-cli-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	lfiBin = filepath.Join(dir, "lfi")
	if out, err := exec.Command("go", "build", "-o", lfiBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building lfi: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes lfi with args and returns its stdout and stderr, failing
// the test unless it exits with the wanted code.
func run(t *testing.T, wantCode int, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	cmd := exec.Command(lfiBin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	code := 0
	var ee *exec.ExitError
	switch {
	case errors.As(err, &ee):
		code = ee.ExitCode()
	case err != nil:
		t.Fatalf("lfi %s: %v", strings.Join(args, " "), err)
	}
	if code != wantCode {
		t.Fatalf("lfi %s: exit %d, want %d\nstdout:\n%s\nstderr:\n%s",
			strings.Join(args, " "), code, wantCode, out.String(), errb.String())
	}
	return out.String(), errb.String()
}

// mustMatch fails the test unless text matches every pattern.
func mustMatch(t *testing.T, what, text string, patterns ...string) {
	t.Helper()
	for _, p := range patterns {
		if !regexp.MustCompile(p).MatchString(text) {
			t.Errorf("%s does not match %q:\n%s", what, p, text)
		}
	}
}

// start launches a long-running lfi process (serve, fleet registry),
// waits for its "listening ADDR" line, and returns the bound address.
// The process is interrupted when the test ends and must exit with the
// Ctrl-C code.
func start(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(lfiBin, args...)
	var errb bytes.Buffer
	cmd.Stderr = &errb
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Signal(os.Interrupt)
		err := cmd.Wait()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 130 {
			t.Errorf("lfi %s: interrupt gave %v, want exit 130\nstderr:\n%s", strings.Join(args, " "), err, errb.String())
		}
	})
	line, err := bufio.NewReader(stdout).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "listening ")
	if err != nil || !ok {
		t.Fatalf("lfi %s: first line %q (%v), want \"listening ADDR\"\nstderr:\n%s", strings.Join(args, " "), line, err, errb.String())
	}
	return addr
}

// TestExploreThenResume: an explore with a store prints the per-system
// summary, the session total and (-v) the store stats; an identical
// rerun executes nothing and reports every entry migrated. raft runs
// through the distributed-trace harness, the other target family.
func TestExploreThenResume(t *testing.T) {
	for _, tc := range []struct {
		app   string
		extra []string
	}{
		{"minidb", []string{"-budget", "600"}},
		{"raft", nil},
	} {
		t.Run(tc.app, func(t *testing.T) {
			store := filepath.Join(t.TempDir(), "store")
			args := append([]string{"explore", "-app", tc.app, "-store", store, "-v"}, tc.extra...)
			out, errOut := run(t, 0, args...)
			mustMatch(t, "explore", out,
				`(?m)^explore `+tc.app+`: \d+ candidates \(\+\d+ window mutants\), [1-9]\d* executed, 0 replayed, \d+ batches`,
				`(?m)^  recovery coverage: .* \(suite alone\) -> `,
				`(?m)^  \d+ distinct failure signatures:$`,
				`(?m)^explore all: 1 systems, [1-9]\d* executed, 0 replayed, `,
				`(?m)^  store `+tc.app+`: \d+ shards, 1 image versions, \d+ entries \(0 migrated, 0 invalidated\)$`)
			mustMatch(t, "explore -v log", errOut,
				`lfi explore: backend local \(capacity \d+, isolated false\)`,
				`explore `+tc.app+`: batch 0: \d+ runs, `)

			out, _ = run(t, 0, args...)
			mustMatch(t, "resume", out,
				`(?m)^explore `+tc.app+`: .*, 0 executed, [1-9]\d* replayed, 0 batches`,
				`(?m)^explore all: 1 systems, 0 executed, `,
				`(?m)^  store `+tc.app+`: .* entries \([1-9]\d* migrated, 0 invalidated\)$`)
		})
	}
	run(t, 2, "explore", "-app", "nosuchsystem")
}

// exploreLine matches a per-system explore summary line: system,
// candidates, window mutants, executed, replayed.
var exploreLine = regexp.MustCompile(`(?m)^explore ([a-z]+): (\d+) candidates \(\+(\d+) window mutants\), (\d+) executed, (\d+) replayed, `)

// exploreCounts parses every per-system summary line of an explore
// stdout into system -> [candidates, mutants, executed, replayed].
func exploreCounts(t *testing.T, out string) map[string][4]int {
	t.Helper()
	counts := make(map[string][4]int)
	for _, m := range exploreLine.FindAllStringSubmatch(out, -1) {
		var c [4]int
		for i := range c {
			fmt.Sscan(m[i+2], &c[i])
		}
		counts[m[1]] = c
	}
	if len(counts) == 0 {
		t.Fatalf("no per-system explore lines in:\n%s", out)
	}
	return counts
}

// TestExploreResumeIdempotent: an unbudgeted explore at default flags
// drains each system's frontier — every candidate and every bred
// mutant is executed or replayed — so an identical second session
// against the same store executes nothing, per system and under -all.
func TestExploreResumeIdempotent(t *testing.T) {
	drained := func(t *testing.T, out string) map[string][4]int {
		t.Helper()
		counts := exploreCounts(t, out)
		for sys, c := range counts {
			if c[2]+c[3] != c[0]+c[1] {
				t.Errorf("explore %s: %d executed + %d replayed, want %d candidates + %d window mutants: frontier not drained",
					sys, c[2], c[3], c[0], c[1])
			}
		}
		return counts
	}
	for _, sys := range lfi.Systems() {
		t.Run(sys.Name, func(t *testing.T) {
			store := filepath.Join(t.TempDir(), "store")
			out, _ := run(t, 0, "explore", "-app", sys.Name, "-store", store)
			drained(t, out)
			out, _ = run(t, 0, "explore", "-app", sys.Name, "-store", store)
			mustMatch(t, "resume", out, `(?m)^explore `+sys.Name+`: .*, 0 executed, [1-9]\d* replayed, 0 batches`)
		})
	}
	t.Run("all", func(t *testing.T) {
		store := filepath.Join(t.TempDir(), "store")
		out, _ := run(t, 0, "explore", "-all", "-store", store)
		first := drained(t, out)
		out, _ = run(t, 0, "explore", "-all", "-store", store)
		again := exploreCounts(t, out)
		for sys, c := range first {
			if a := again[sys]; a[2] != 0 || a[3] != c[2] {
				t.Errorf("resumed explore %s: %d executed, %d replayed, want 0 executed and the first run's %d replayed", sys, a[2], a[3], c[2])
			}
		}
		if len(again) != len(first) {
			t.Errorf("resumed explore -all reported %d systems, the first run %d", len(again), len(first))
		}
	})
}

// TestExploreAllCoverage pins the exact coverage lines `explore -all
// -seed 1` prints for every system — recovery coverage of the suite
// alone and after exploration, and total coverage — under a sequential
// and a parallel local pool.
func TestExploreAllCoverage(t *testing.T) {
	want := []struct{ app, recovery, total string }{
		{"minidb", "0/16 blocks, 0/103 LOC (0.0%) (suite alone) -> 16/16 blocks, 103/103 LOC (100.0%)", "22/22 blocks, 288/288 LOC (100.0%)"},
		{"minidns", "2/26 blocks, 10/176 LOC (5.7%) (suite alone) -> 23/26 blocks, 134/176 LOC (76.1%)", "32/38 blocks, 6134/9804 LOC (62.6%)"},
		{"minivcs", "0/24 blocks, 0/223 LOC (0.0%) (suite alone) -> 20/24 blocks, 131/223 LOC (58.7%)", "28/35 blocks, 7731/9657 LOC (80.1%)"},
		{"miniweb", "0/5 blocks, 0/33 LOC (0.0%) (suite alone) -> 5/5 blocks, 33/33 LOC (100.0%)", "8/8 blocks, 147/147 LOC (100.0%)"},
		{"pbft", "0/3 blocks, 0/14 LOC (0.0%) (suite alone) -> 3/3 blocks, 14/14 LOC (100.0%)", "11/11 blocks, 164/164 LOC (100.0%)"},
		{"raft", "0/4 blocks, 0/19 LOC (0.0%) (suite alone) -> 4/4 blocks, 19/19 LOC (100.0%)", "11/11 blocks, 115/115 LOC (100.0%)"},
	}
	for _, j := range []string{"1", "2"} {
		out, _ := run(t, 0, "explore", "-all", "-seed", "1", "-j", j)
		for _, w := range want {
			mustMatch(t, "explore -all -j "+j, out, `(?m)^explore `+w.app+`: .*\n`+
				`  recovery coverage: `+regexp.QuoteMeta(w.recovery)+`\n`+
				`  total coverage:    `+regexp.QuoteMeta(w.total)+`$`)
		}
	}
}

// TestDiffAndPatchedExplore: `lfi diff` previews a -patch edit against
// the store read-only, and the patched explore reports its impact plan.
func TestDiffAndPatchedExplore(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	run(t, 0, "explore", "-app", "minidb", "-store", store)

	out, _ := run(t, 0, "diff", "-app", "minidb", "-store", store, "-patch", "errmsg_load")
	mustMatch(t, "diff", out,
		`(?m)^diff minidb: minidb@[0-9a-f]+ vs minidb@[0-9a-f]+$`,
		`functions: 1 changed \[errmsg_load\]`,
		`impacted recovery blocks \(\d+\): .*rec\.em_read`,
		`base candidates: \d+ cached, [1-9]\d* migratable, \d+ revalidate, 0 missing`)

	out, _ = run(t, 0, "explore", "-app", "minidb", "-store", store, "-patch", "errmsg_load", "-v")
	mustMatch(t, "patched explore", out,
		`(?m)^  impact vs minidb@[0-9a-f]+: 1 changed fn \[errmsg_load\], \d+ impacted blocks, [1-9]\d* migrated, \d+ revalidated`,
		`(?m)^  store minidb: \d+ shards, 2 image versions, `)

	run(t, 2, "diff", "-app", "minidb")
	run(t, 2, "explore", "-app", "minidb", "-patch", "nosuchfunction")
}

// TestLintJSON: `lfi lint -json` prints one report per registered
// system; with -store and -patch only the edited function's summary is
// recomputed.
func TestLintJSON(t *testing.T) {
	out, _ := run(t, 0, "lint", "-json")
	var systems []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var rep struct {
			System     string          `json:"system"`
			Counts     json.RawMessage `json:"counts"`
			Sites      []any           `json:"sites"`
			DeadBlocks []string        `json:"deadBlocks"`
		}
		if err := json.Unmarshal([]byte(line), &rep); err != nil {
			t.Fatalf("lint -json line is not a JSON report: %v\n%s", err, line)
		}
		if len(rep.Counts) == 0 || len(rep.Sites) == 0 {
			t.Errorf("lint report for %q lacks counts or sites", rep.System)
		}
		// Every swallowed minivcs site's recovery block, by name.
		if want := "rec.rc_opendir rec.re_setenv_dir rec.xm_malloc_567 rec.xm_malloc_571 rec.xp_malloc_191"; rep.System == "minivcs" && strings.Join(rep.DeadBlocks, " ") != want {
			t.Errorf("minivcs dead recovery blocks %v, want [%s]", rep.DeadBlocks, want)
		}
		systems = append(systems, rep.System)
	}
	if want := lfi.SystemNames(); strings.Join(systems, ",") != strings.Join(want, ",") {
		t.Errorf("lint -json reported %v, want every registered system %v", systems, want)
	}

	type incremental struct {
		Recomputed []string `json:"recomputed"`
		Reused     int      `json:"reused"`
	}
	store := filepath.Join(t.TempDir(), "store")
	var cold, edited incremental
	out, _ = run(t, 0, "lint", "-app", "minivcs", "-store", store, "-json")
	if err := json.Unmarshal([]byte(out), &cold); err != nil || cold.Reused != 0 {
		t.Fatalf("cold store-backed lint: %+v, %v\n%s", cold, err, out)
	}
	out, _ = run(t, 0, "lint", "-app", "minivcs", "-store", store, "-patch", "xdl_do_merge", "-json")
	if err := json.Unmarshal([]byte(out), &edited); err != nil ||
		strings.Join(edited.Recomputed, ",") != "xdl_do_merge" || edited.Reused != len(cold.Recomputed)-1 {
		t.Fatalf("patched lint: %+v, %v; want only xdl_do_merge recomputed, the other %d reused",
			edited, err, len(cold.Recomputed)-1)
	}

	out, _ = run(t, 0, "lint", "-app", "minidb")
	if strings.HasPrefix(out, "{") || !strings.Contains(out, "minidb") {
		t.Errorf("text lint output looks wrong:\n%s", out)
	}
}

// TestAnalyze: `lfi analyze` prints the Algorithm 1 classification, one
// line per call site, and with -scenarios the generated scenario XML.
func TestAnalyze(t *testing.T) {
	out, _ := run(t, 0, "analyze", "-app", "minivcs")
	header := regexp.MustCompile(`^minivcs: (\d+) call sites: (\d+) checked, (\d+) partially checked, (\d+) unchecked\n\n`)
	m := header.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("analyze header missing:\n%s", out)
	}
	var sites, yes, part, not int
	fmt.Sscan(m[1]+" "+m[2]+" "+m[3]+" "+m[4], &sites, &yes, &part, &not)
	if sites == 0 || yes+part+not != sites {
		t.Fatalf("analyze header %q: classes do not partition the sites", m[0])
	}
	lines := strings.Split(strings.TrimSpace(out[len(m[0]):]), "\n")
	if len(lines) != sites {
		t.Fatalf("analyze printed %d site lines, header says %d", len(lines), sites)
	}
	siteLine := regexp.MustCompile(`^ *[0-9a-f]+  \S+ +in \S+ +(checked|partial|unchecked) +eq=\[.*\] ineq=\[.*\] missing=\[.*\]`)
	for _, l := range lines {
		if !siteLine.MatchString(l) {
			t.Errorf("malformed site line %q", l)
		}
	}

	out, errOut := run(t, 0, "analyze", "-app", "minivcs", "-scenarios", "-dis")
	gen := regexp.MustCompile(`(?m)^(\d+) generated scenarios:$`).FindStringSubmatch(out)
	if gen == nil {
		t.Fatalf("-scenarios printed no scenario block:\n%s", out)
	}
	if n := strings.Count(out, "<scenario "); fmt.Sprint(n) != gen[1] || n == 0 {
		t.Errorf("-scenarios announced %s scenarios, printed %d", gen[1], n)
	}
	if !strings.Contains(errOut, "cmd_update_index") {
		t.Errorf("-dis disassembly on stderr lacks symbol headers:\n%.300s", errOut)
	}

	_, errOut = run(t, 2, "analyze", "-app", "nosuchsystem")
	mustMatch(t, "unknown app", errOut, `registered: .*minivcs`)
}

// TestProfile: `lfi profile` prints a library's fault profile as XML
// the profile parser reads back.
func TestProfile(t *testing.T) {
	out, errOut := run(t, 0, "profile", "-lib", "libc", "-dis")
	p, err := profile.Parse(strings.NewReader(out))
	if err != nil {
		t.Fatalf("profile output does not parse: %v\n%.300s", err, out)
	}
	if p.Lib != "libc" || p.Func("read") == nil || len(p.Func("read").ErrorCodes()) == 0 {
		t.Errorf("libc profile lacks read's error returns: %+v", p)
	}
	if !strings.Contains(errOut, "read") {
		t.Errorf("-dis disassembly missing on stderr:\n%.300s", errOut)
	}
	_, errOut = run(t, 2, "profile", "-lib", "nosuchlib")
	mustMatch(t, "unknown lib", errOut, `have: libc, libxml, libapr`)
}

// TestServeWorkersRemote: `lfi explore -workers-remote` fans a campaign
// across loopback `lfi serve` workers; with -no-local every run goes
// through the wire.
func TestServeWorkersRemote(t *testing.T) {
	a := start(t, "serve", "-addr", "127.0.0.1:0", "-j", "2")
	b := start(t, "serve", "-addr", "127.0.0.1:0", "-j", "2")
	out, errOut := run(t, 0, "explore", "-all", "-no-local", "-workers-remote", a+","+b, "-v")
	mustMatch(t, "remote explore", out,
		fmt.Sprintf(`(?m)^explore all: %d systems, [1-9]\d* executed, 0 replayed, `, len(lfi.SystemNames())))
	mustMatch(t, "remote explore -v log", errOut,
		`backend remote\(`+regexp.QuoteMeta(a)+`\) \(capacity 2, isolated true\)`,
		`backend remote\(`+regexp.QuoteMeta(b)+`\) \(capacity 2, isolated true\)`)
	if strings.Contains(errOut, "backend local") {
		t.Errorf("-no-local still added the local backend:\n%s", errOut)
	}

	run(t, 2, "explore", "-app", "minidb", "-no-local")
}

// TestExplorePool: `lfi explore -pool 2 -no-local` runs every test in
// worker subprocesses, lists the pool's two members as backends, and
// matches the local backend's figures for minidb (376 executed, 35
// signatures); an identical rerun under
// default flags executes nothing; and SIGINT during a pool-only
// `-all` campaign exits 130 promptly with the store compacted (no
// journal left), so the rerun replays what was folded.
func TestExplorePool(t *testing.T) {
	store := filepath.Join(t.TempDir(), "s")
	args := []string{"explore", "-app", "minidb", "-pool", "2", "-no-local", "-store", store, "-v"}
	out, errOut := run(t, 0, args...)
	mustMatch(t, "pool explore", out,
		`(?m)^explore minidb: .*, 376 executed, 0 replayed, `,
		`(?m)^  35 distinct failure signatures:$`)
	mustMatch(t, "pool explore -v log", errOut,
		`backend pool\(2\)\[0\] \(capacity 1, isolated true\)`,
		`backend pool\(2\)\[1\] \(capacity 1, isolated true\)`)
	out, _ = run(t, 0, args...)
	mustMatch(t, "pool resume", out, `(?m)^explore minidb: .*, 0 executed, 376 replayed, `)

	store2 := filepath.Join(t.TempDir(), "s2")
	args = []string{"explore", "-all", "-pool", "2", "-no-local", "-store", store2}
	cmd := exec.Command(lfiBin, append(args, "-v")...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Interrupt as soon as the first batch has been folded.
	sc := bufio.NewScanner(stderr)
	for sc.Scan() && !regexp.MustCompile(`: batch \d+: `).MatchString(sc.Text()) {
	}
	cmd.Process.Signal(os.Interrupt)
	interrupted := time.Now()
	hung := time.AfterFunc(10*time.Second, func() { cmd.Process.Kill() })
	defer hung.Stop()
	io.Copy(io.Discard, stderr)
	err = cmd.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 130 {
		t.Fatalf("lfi %s: interrupt gave %v, want exit 130", strings.Join(args, " "), err)
	}
	if d := time.Since(interrupted); d > 5*time.Second {
		t.Fatalf("lfi %s: exited %v after SIGINT, want within 5s", strings.Join(args, " "), d)
	}
	noJournal(t, "interrupted explore -all", store2)
	out, _ = run(t, 0, args...)
	mustMatch(t, "pool resume after interrupt", out, `(?m)^explore all: \d+ systems, \d+ executed, [1-9]\d* replayed, `)
	noJournal(t, "completed explore -all", store2)
}

// noJournal fails the test if any system directory of the store holds a
// journal: a session that ends, completed or interrupted, compacts its
// per-batch journal into the system's snapshot.
func noJournal(t *testing.T, what, store string) {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(store, "*", "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 0 {
		t.Errorf("%s left journals behind: %v", what, left)
	}
}

// fleetStatus reads the registry's status document through the CLI.
func fleetStatus(t *testing.T, registry string) lfi.FleetStatusDoc {
	t.Helper()
	out, _ := run(t, 0, "fleet", "status", "-registry", registry, "-json")
	var st lfi.FleetStatusDoc
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		t.Fatalf("fleet status -json: %v\n%s", err, out)
	}
	return st
}

// TestFleetRegistry: a `lfi serve -register` worker announces itself to
// `lfi fleet registry`, `lfi explore -fleet` discovers it with no
// address given, and `lfi fleet status` shows the worker and the
// published campaign.
func TestFleetRegistry(t *testing.T) {
	reg := start(t, "fleet", "registry", "-addr", "127.0.0.1:0")
	worker := start(t, "serve", "-addr", "127.0.0.1:0", "-j", "2", "-register", reg)

	deadline := time.Now().Add(10 * time.Second)
	for len(fleetStatus(t, reg).Workers) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker never self-registered")
		}
		time.Sleep(50 * time.Millisecond)
	}

	out, errOut := run(t, 0, "explore", "-all", "-fleet", reg, "-no-local", "-v")
	mustMatch(t, "fleet explore", out, `(?m)^explore all: \d+ systems, [1-9]\d* executed, `)
	mustMatch(t, "fleet explore -v log", errOut,
		`fleet: registry .*: 1 worker\(s\) discovered, 1 dialed`,
		`backend remote\(`+regexp.QuoteMeta(worker)+`\)`)

	for fleetStatus(t, reg).Campaign == nil {
		if time.Now().After(deadline) {
			t.Fatal("explore -fleet never published its campaign")
		}
		time.Sleep(50 * time.Millisecond)
	}
	out, _ = run(t, 0, "fleet", "status", "-registry", reg)
	mustMatch(t, "fleet status", out,
		`(?m)^registry .*: 1 worker\(s\) live, heartbeat `,
		`(?m)^  w\d+ +`+regexp.QuoteMeta(worker)+` +cap 2 proto \d+ `,
		`(?m)^campaign \S+ \(updated .* ago\):$`,
		`(?m)^  \S+ +\d+ executed, \d+ replayed, \d+ bugs, `)

	run(t, 2, "fleet")
	run(t, 2, "fleet", "status")
}
