package lfi

import (
	"context"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"lfi/internal/impact"
)

// TestSessionImpactWorkflow drives the incremental re-exploration
// workflow end to end through the facade, for every registered system:
// explore with a store, apply an inert one-function patch
// (PatchSystem), preview the classification with Session.Diff, then
// re-explore with default options — every cached entry is accounted for
// exactly once, and every advertised stock Table-1 bug is still found
// after the edit, whether the analysis bounded it or fell back to
// whole-shard invalidation (minidns's hidden indirect jump exercises
// the fallback arm when its first function is the patched one).
func TestSessionImpactWorkflow(t *testing.T) {
	for _, sys := range Systems() {
		sys := sys
		t.Run(sys.Name, func(t *testing.T) {
			sess := mustSession(t,
				WithWorkers(4),
				WithStore(filepath.Join(t.TempDir(), "store")),
			)
			first, err := sess.Explore(context.Background(), sys)
			if err != nil {
				t.Fatal(err)
			}
			if first.Executed == 0 || first.Impact != nil {
				t.Fatalf("first run: executed %d, impact %+v; want a plain full run", first.Executed, first.Impact)
			}

			// Patch the alphabetically first application function —
			// whichever it is; the contract below holds for any edit.
			bin, _ := sys.Binary()
			var fns []string
			for fn := range impact.FuncHashes(bin) {
				fns = append(fns, fn)
			}
			sort.Strings(fns)
			psys, err := PatchSystem(sys, fns[0])
			if err != nil {
				t.Fatal(err)
			}

			rep, err := sess.Diff(psys)
			if err != nil {
				t.Fatal(err)
			}
			if rep.PrevImage == "" {
				t.Fatalf("diff found no previous image fingerprints: %+v", rep)
			}
			if rep.Set.Fallback {
				if rep.Revalidate == 0 {
					t.Fatalf("unbounded edit classified nothing for re-validation: %+v", rep)
				}
			} else if !strings.Contains(strings.Join(rep.Diff.Changed, " "), fns[0]) {
				t.Fatalf("diff missed the patched function %s: %+v", fns[0], rep.Diff)
			}

			second, err := sess.Explore(context.Background(), psys)
			if err != nil {
				t.Fatal(err)
			}
			if second.Impact == nil {
				t.Fatal("impact resume produced no summary")
			}
			if second.Executed+second.Replayed != first.Executed {
				t.Fatalf("executed %d + replayed %d, want total %d", second.Executed, second.Replayed, first.Executed)
			}
			if second.Replayed == 0 {
				t.Fatal("impact resume replayed nothing")
			}

			// The acceptance bar survives the edit: every stock bug is
			// still on the post-patch bug list.
			for _, sb := range sys.StockBugs {
				found := false
				for _, b := range second.Bugs {
					if b.IsCrash() && strings.Contains(b.Signature, sb.Match) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("stock bug lost across the patched resume: %q (%s)", sb.Match, sb.Note)
				}
			}
		})
	}
}
