package explore

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"lfi/internal/exec"
	"lfi/internal/system"
)

// manifestShards returns the regions index.json lists for image.
func manifestShards(t *testing.T, store, sys, image string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(store, sys, indexName))
	if err != nil {
		t.Fatal(err)
	}
	var idx storeIndex
	if err := json.Unmarshal(data, &idx); err != nil {
		t.Fatal(err)
	}
	for _, m := range idx.Images {
		if m.Image == image {
			return m.Shards
		}
	}
	t.Fatalf("%s: index.json has no manifest of image %s", sys, image)
	return nil
}

// TestFirstAppendListsEveryRegion pins what a killed first session
// leaves: the index.json a fresh store's first journal append writes
// lists every region the session's final Save does, on every registered
// system, although the mutants bred so far are not keyed yet when that
// append runs. It holds because a window mutant keys on the whole-image
// region its occurrence ancestor already carries, and a stack window on
// its parent's caller.
func TestFirstAppendListsEveryRegion(t *testing.T) {
	if testing.Short() {
		t.Skip("explores every registered system")
	}
	fleet := exec.NewFleet(exec.NewLocal(runtime.GOMAXPROCS(0)))
	defer fleet.Close()
	for _, d := range system.All() {
		var store, image string
		var first []string
		landed := 0
		exploreFresh(t, d, fleet, func(r *run) {
			if landed++; landed != 2 {
				return
			}
			// The step after the first land: wait for its store job,
			// which made the run's first append.
			if err := r.wait(); err != nil {
				t.Fatal(err)
			}
			store, image = r.cfg.Store, r.x.imageVersion
			first = manifestShards(t, store, d.Name, image)
		})
		if first == nil {
			t.Fatalf("%s: no region listed after the first append", d.Name)
		}
		if final := manifestShards(t, store, d.Name, image); !slices.Equal(first, final) {
			t.Fatalf("%s: first append listed regions %v, the final Save %v", d.Name, first, final)
		}
	}
}

// TestExploreJournalErrorStops injects a journal fault after setup: a
// directory where one system's journal goes, placed from the Status
// hook after its first batch lands, so that batch's store job cannot
// open the journal. Explore returns that error, the system launches at
// most one more batch (the one whose land reports it), and no outcome
// that completed is lost: with the fault cleared, a resume executes
// exactly what the first session did not, and the two together execute
// the unbudgeted session's 3284 tests.
func TestExploreJournalErrorStops(t *testing.T) {
	if testing.Short() {
		t.Skip("explores every registered system")
	}
	fleet := exec.NewFleet(exec.NewLocal(runtime.GOMAXPROCS(0)))
	defer fleet.Close()
	const victim = "minidns"
	root := t.TempDir()
	journal := filepath.Join(root, victim, journalName)
	cfgs := allConfigs(fleet, root)
	placed := false
	for i := range cfgs {
		if cfgs[i].System == victim {
			cfgs[i].Status = func(StatusUpdate) {
				if !placed {
					placed = true
					if err := os.MkdirAll(journal, 0o755); err != nil {
						t.Error(err)
					}
				}
			}
		}
	}
	first, err := Explore(context.Background(), 0, cfgs...)
	if err == nil || !strings.Contains(err.Error(), journal) {
		t.Fatalf("explore returned %v, want the journal error of %s", err, journal)
	}
	for _, res := range first.Results {
		if res.System == victim && len(res.Batches) > 2 {
			t.Fatalf("%s landed %d batches, want its first and at most one more after its append failed", victim, len(res.Batches))
		}
	}

	if err := os.RemoveAll(journal); err != nil {
		t.Fatal(err)
	}
	second, err := Explore(context.Background(), 0, allConfigs(fleet, root)...)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range second.Results {
		if was := first.Results[i].Executed; res.Replayed != was {
			t.Fatalf("%s: resume replayed %d, the first session executed %d", res.System, res.Replayed, was)
		}
		if res.Executed+res.Replayed != res.Candidates+res.Mutants {
			t.Fatalf("%s: resume did not drain its frontier: %d executed + %d replayed of %d candidates + %d mutants",
				res.System, res.Executed, res.Replayed, res.Candidates, res.Mutants)
		}
	}
	// 3284 is every registered system's drained frontier at default
	// flags, what one unbudgeted `lfi explore -all` executes.
	if total := first.Executed + second.Executed; total != 3284 {
		t.Fatalf("the two sessions executed %d + %d = %d, want 3284", first.Executed, second.Executed, total)
	}
}

// TestExploreFinishDeterministic pins the parallel end of a session.
// Save fails for configs 1 and 3 (a non-empty directory where their
// snapshot goes, placed from the Status hook after setup), yet every
// run finishes: the error names the first failing store in input order,
// minidns's, and the other four stores are byte-identical to those of
// a session with no fault. Status updates, the last six included, come
// from one goroutine in input order: the recorder takes no lock, so
// -race sees any other caller. Ten sessions each under GOMAXPROCS 1 and
// 2.
func TestExploreFinishDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("explores every registered system")
	}
	fleet := exec.NewFleet(exec.NewLocal(runtime.GOMAXPROCS(0)))
	defer fleet.Close()
	const budget = 96
	ref := t.TempDir()
	if _, err := Explore(context.Background(), budget, allConfigs(fleet, ref)...); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < 10; i++ {
			root := t.TempDir()
			cfgs := allConfigs(fleet, root)
			faulty := map[string]bool{cfgs[1].System: true, cfgs[3].System: true}
			var got []string
			status := func(u StatusUpdate) {
				if got = append(got, u.System); len(got) > 1 {
					return
				}
				for sys := range faulty {
					if err := os.MkdirAll(filepath.Join(root, sys, snapshotName, "x"), 0o755); err != nil {
						t.Error(err)
					}
				}
			}
			for j := range cfgs {
				cfgs[j].Status = status
			}
			res, err := Explore(context.Background(), budget, cfgs...)
			if want := filepath.Join(root, "minidns", snapshotName); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("GOMAXPROCS %d: explore returned %v, want the save error of %s", procs, err, want)
			}
			if len(res.Results) != len(cfgs) || res.Executed != budget {
				t.Fatalf("GOMAXPROCS %d: %d results, %d executed; want %d, %d", procs, len(res.Results), res.Executed, len(cfgs), budget)
			}
			last := got[len(got)-len(cfgs):]
			for j, cfg := range cfgs {
				if last[j] != cfg.System {
					t.Fatalf("GOMAXPROCS %d: final status updates in order %v, want input order", procs, last)
				}
				if !faulty[cfg.System] {
					sameStore(t, fmt.Sprintf("GOMAXPROCS %d: %s", procs, cfg.System), filepath.Join(ref, cfg.System), filepath.Join(root, cfg.System))
				}
			}
		}
	}
}
