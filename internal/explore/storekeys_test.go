package explore

import (
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
		cfg := ConfigForSystem(d)
		cfg.Store = t.TempDir()
		cfg.Exec = fleet

		gen := map[string]bool{}
		for _, c := range Generate(cfg) {
			gen[c.Hash] = true
		}

		// Every bred mutant lands on the pending queue at the end of
		// the step that bred it, so sampling the queue after each step
		// sees every scenario the run enumerates, executed or not.
		nameOf := map[string]string{}
		hashOf := map[string]string{}
		collect := func(r *run) {
			for _, c := range r.pending {
				name := c.Scenario.Name
				if h, ok := hashOf[name]; ok && h != c.Hash {
					t.Fatalf("%s: name %s has two content hashes %s and %s", d.Name, name, h, c.Hash)
				}
				if n, ok := nameOf[c.Hash]; ok && n != name {
					t.Fatalf("%s: content hash %s has two names %s and %s", d.Name, c.Hash, n, name)
				}
				hashOf[name], nameOf[c.Hash] = c.Hash, name
			}
		}
		r, err := newRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		collect(r)
		disp := newDispatcher()
		for !r.done() {
			if err := r.land(r.launch(context.Background(), 0, disp)); err != nil {
				t.Fatal(err)
			}
			collect(r)
		}
		disp.stop()
		res, err := r.finish(nil)
		if err != nil {
			t.Fatal(err)
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
