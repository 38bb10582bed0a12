package explore

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"lfi/internal/exec"
	"lfi/internal/scenario"
	"lfi/internal/system"
)

var updateStoreKeys = flag.Bool("update-store-keys", false, "rewrite testdata/store_keys.golden")

// keySet digests a set of content hashes: its size and the SHA-256 of
// the sorted hashes, one per line.
func keySet(hashes map[string]bool) string {
	sorted := make([]string, 0, len(hashes))
	for h := range hashes {
		sorted = append(sorted, h)
	}
	sort.Strings(sorted)
	sum := sha256.Sum256([]byte(strings.Join(sorted, "\n")))
	return fmt.Sprintf("%d %s", len(sorted), hex.EncodeToString(sum[:]))
}

// TestStoreKeysGolden pins the content hashes — the scenario half of
// every store key — of every candidate Generate enumerates and every
// mutant a default-flag fresh-store exploration breeds, on every
// registered system. A serializer change that moves one byte of one
// scenario fails here; without this pin it would silently orphan every
// existing store. It also checks that scenario name and content hash
// are a bijection over the set, the property the explorer's name-keyed
// deduplication relies on. Regenerate with -update-store-keys only
// for a deliberate store-key change.
func TestStoreKeysGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("explores every registered system")
	}
	var got strings.Builder
	fleet := exec.NewFleet(exec.NewLocal(runtime.GOMAXPROCS(0)))
	defer fleet.Close()
	for _, d := range system.All() {
		gen := map[string]bool{}
		for _, c := range Generate(ConfigForSystem(d)) {
			gen[c.Hash] = true
		}

		// A mutant is keyed only once it has run (or when the run
		// finishes), so the hashes are read after finish.
		queued := map[*Candidate]bool{}
		res := exploreFresh(t, d, fleet, func(r *run) {
			for _, c := range r.pending {
				queued[c] = true
			}
		})
		nameOf := map[string]string{}
		hashOf := map[string]string{}
		for c := range queued {
			name := c.name
			if h, ok := hashOf[name]; ok && h != c.Hash {
				t.Fatalf("%s: name %s has two content hashes %s and %s", d.Name, name, h, c.Hash)
			}
			if n, ok := nameOf[c.Hash]; ok && n != name {
				t.Fatalf("%s: content hash %s has two names %s and %s", d.Name, c.Hash, n, name)
			}
			hashOf[name], nameOf[c.Hash] = c.Hash, name
		}

		mutants := map[string]bool{}
		for h := range nameOf {
			if !gen[h] {
				mutants[h] = true
			}
		}
		if len(mutants) != res.Mutants {
			t.Fatalf("%s: saw %d mutants on the queue, the run bred %d", d.Name, len(mutants), res.Mutants)
		}
		fmt.Fprintf(&got, "%s candidates %s\n", d.Name, keySet(gen))
		fmt.Fprintf(&got, "%s mutants %s\n", d.Name, keySet(mutants))
	}

	path := filepath.Join("testdata", "store_keys.golden")
	if *updateStoreKeys {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("store keys moved:\ngot:\n%swant:\n%s", got.String(), want)
	}
}

// exploreFresh runs d's default-flag exploration on a fresh store one
// batch at a time and returns the finished result. Every bred mutant
// lands on the pending queue at the end of the step that bred it, so
// step, called with the run after setup and after every landed batch,
// sees every candidate the run enumerates, executed or not.
func exploreFresh(t *testing.T, d *system.Descriptor, fleet *exec.Fleet, step func(*run)) *Result {
	t.Helper()
	cfg := ConfigForSystem(d)
	cfg.Store = t.TempDir()
	cfg.Exec = fleet
	r, err := newRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	step(r)
	disp := newDispatcher()
	defer disp.stop()
	for !r.done() {
		if err := r.land(r.launch(context.Background(), 0, disp)); err != nil {
			t.Fatal(err)
		}
		step(r)
	}
	res, err := r.finish(nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCandidateKeyMatchesBuild pins the key a candidate is scheduled
// and looked up by to the scenario that runs: for every candidate a
// default-flag fresh-store exploration generates or breeds, on every
// registered system, the Hash derived from the parameters equals the
// ContentHash of the scenario launch built, the built scenario passes
// Validate and serializes to exactly the bytes the keyer hashes, and
// its XML parses back to the same content and passes Validate too.
func TestCandidateKeyMatchesBuild(t *testing.T) {
	fleet := exec.NewFleet(exec.NewLocal(runtime.GOMAXPROCS(0)))
	defer fleet.Close()
	check := func(sys string, k *keyer, c *Candidate) {
		t.Helper()
		if c.Scenario == nil {
			t.Fatalf("%s: %s was never built", sys, c.name)
		}
		if h := c.Scenario.ContentHash(); h != c.Hash {
			t.Fatalf("%s: %s keyed %s, built %s", sys, c.name, c.Hash, h)
		}
		if err := c.Scenario.Validate(); err != nil {
			t.Fatalf("%s: %s built invalid: %v", sys, c.name, err)
		}
		rekeyed := *c
		k.key(&rekeyed)
		if doc := c.Scenario.Serialize(); !bytes.Equal(doc, k.buf) {
			t.Fatalf("%s: %s built\n%s\nkeyed\n%s", sys, c.name, doc, k.buf)
		}
		parsed, err := scenario.ParseString(string(c.Scenario.Serialize()))
		if err != nil {
			t.Fatalf("%s: %s: %v", sys, c.name, err)
		}
		if err := parsed.Validate(); err != nil {
			t.Fatalf("%s: %s: %v", sys, c.name, err)
		}
		if parsed.Name != c.name || parsed.ContentHash() != c.Hash {
			t.Fatalf("%s: %s reparses as %s %s", sys, c.name, parsed.Name, parsed.ContentHash())
		}
	}
	for _, d := range system.All() {
		// A fresh store drains the whole frontier, so every candidate
		// the run enumerates launches.
		all := map[*Candidate]bool{}
		res := exploreFresh(t, d, fleet, func(r *run) {
			for _, c := range r.pending {
				all[c] = true
			}
		})
		if len(all) != res.Candidates+res.Mutants || len(all) != res.Executed {
			t.Fatalf("%s: %d candidates enumerated, %d generated and bred, %d executed",
				d.Name, len(all), res.Candidates+res.Mutants, res.Executed)
		}
		k := newKeyer(ConfigForSystem(d).Binary)
		for c := range all {
			check(d.Name, k, c)
		}
	}
}
