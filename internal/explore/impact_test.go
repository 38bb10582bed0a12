package explore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lfi/internal/profile"
)

// TestImpactInvalidation pins the diff-aware resume contract: after an
// inert patch to one minidb function, an -impact resume re-executes
// only the scenarios whose recorded coverage the edit can reach —
// strictly fewer than the whole-shard invalidation path on the same
// edit — while keeping the every-entry-exactly-once invariant and the
// full bug list. An identical-binary -impact resume still executes
// nothing.
func TestImpactInvalidation(t *testing.T) {
	const changed = "errmsg_load"

	// Whole-shard baseline: the pre-existing resume behavior on an
	// identical store and identical edit, Impact off.
	wcfg := minidbConfig(t)
	wcfg.Store = filepath.Join(t.TempDir(), "store")
	if _, err := Explore(wcfg); err != nil {
		t.Fatal(err)
	}
	wcfg.Binary = patched(t, wcfg.Binary, changed)
	whole, err := Explore(wcfg)
	if err != nil {
		t.Fatal(err)
	}

	// Impact path: same sequence with Config.Impact set throughout —
	// the first run has no previous image and must behave identically
	// to a plain full run.
	cfg := minidbConfig(t)
	cfg.Store = filepath.Join(t.TempDir(), "store")
	cfg.Impact = true
	first, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Executed == 0 || first.Replayed != 0 || first.Impact != nil {
		t.Fatalf("first impact run: executed %d, replayed %d, impact %+v; want a plain full run",
			first.Executed, first.Replayed, first.Impact)
	}

	cfg.Binary = patched(t, cfg.Binary, changed)
	second, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.Impact == nil {
		t.Fatal("impact resume produced no impact summary")
	}
	if second.Impact.Fallback {
		t.Fatalf("inert one-function patch fell back to whole-shard: %s", second.Impact.Reason)
	}
	if !reflect.DeepEqual(second.Impact.Changed, []string{changed}) {
		t.Fatalf("changed functions = %v, want [%s]", second.Impact.Changed, changed)
	}
	// The impacted blocks are exactly the changed function's three
	// check sites — no caller-window or callee spill in minidb, whose
	// app functions are emitted standalone.
	if want := []string{"rec.em_close", "rec.em_open", "rec.em_read"}; !reflect.DeepEqual(second.Impact.Blocks, want) {
		t.Fatalf("impacted blocks = %v, want %v (errmsg_load's sites)", second.Impact.Blocks, want)
	}

	// Every first-run entry is accounted for exactly once, same as the
	// whole-shard invariant — migration rides the replay path.
	if second.Executed+second.Replayed != first.Executed {
		t.Fatalf("executed %d + replayed %d, want total %d", second.Executed, second.Replayed, first.Executed)
	}
	// The point of the feature: strictly fewer re-executions than
	// whole-shard invalidation of the very same edit, because
	// image-keyed entries with disjoint coverage migrated.
	if second.Executed >= whole.Executed {
		t.Fatalf("impact resume executed %d, whole-shard executed %d; want strictly fewer", second.Executed, whole.Executed)
	}
	// Pinned numbers for this exact edit (candidate enumeration is
	// deterministic, see TestExploreDeterministic): whole-shard
	// invalidation re-executes every image-keyed candidate plus
	// errmsg_load's call-stack candidates; the impact plan migrates the
	// 142 whose recorded coverage the edit cannot reach and re-executes
	// only the remaining 72.
	if whole.Executed != 214 {
		t.Fatalf("whole-shard baseline executed %d, want 214 (update alongside candidate-space changes)", whole.Executed)
	}
	if second.Executed != 72 || second.Impact.Migrated != 142 || second.Impact.Revalidated != 32 {
		t.Fatalf("impact resume executed %d (migrated %d, revalidated %d), want 72 (142, 32)",
			second.Executed, second.Impact.Migrated, second.Impact.Revalidated)
	}

	// The bug list survives the inert edit bit-for-bit.
	if !reflect.DeepEqual(bugSigs(first), bugSigs(second)) {
		t.Fatalf("bug signatures diverged across impact resume:\n%v\nvs\n%v", bugSigs(first), bugSigs(second))
	}

	// Identical binary, -impact still on: everything replays, nothing
	// executes, and the plan (built against the pre-patch manifest)
	// neither migrates nor re-validates anything.
	third, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if third.Executed != 0 {
		t.Fatalf("identical-binary impact resume executed %d scenarios", third.Executed)
	}
	if third.Impact != nil && (third.Impact.Migrated != 0 || third.Impact.Revalidated != 0) {
		t.Fatalf("identical-binary impact resume migrated %d / revalidated %d entries",
			third.Impact.Migrated, third.Impact.Revalidated)
	}
	if !reflect.DeepEqual(bugSigs(second), bugSigs(third)) {
		t.Fatalf("bug signatures diverged on identical-binary resume:\n%v\nvs\n%v", bugSigs(second), bugSigs(third))
	}
}

// dupReturnProfiles deep-copies a profile set and appends an exact
// duplicate of fn's first constant error return. The edit is
// candidate-space neutral — classification is set-semantic over E and
// duplicate scenarios collapse under the content hash — but it changes
// fn's canonical profile fingerprint (impact.ProfileHashes serializes
// per Return), which is precisely what a fault-model edit looks like
// to the store.
func dupReturnProfiles(t *testing.T, ps []*profile.Profile, fn string) []*profile.Profile {
	t.Helper()
	edited := false
	out := make([]*profile.Profile, len(ps))
	for i, p := range ps {
		np := &profile.Profile{Lib: p.Lib, Funcs: make(map[string]*profile.FuncProfile, len(p.Funcs))}
		for name, fp := range p.Funcs {
			nfp := &profile.FuncProfile{Name: fp.Name, Returns: append([]profile.Return(nil), fp.Returns...)}
			if name == fn && !edited {
				for _, r := range nfp.Returns {
					if r.Const && len(r.Errnos) > 0 {
						nfp.Returns = append(nfp.Returns, r)
						edited = true
						break
					}
				}
			}
			np.Funcs[name] = nfp
		}
		out[i] = np
	}
	if !edited {
		t.Fatalf("profile set has no constant error return for %q to duplicate", fn)
	}
	return out
}

// TestImpactProfileEdit pins the profile-fingerprint half of the impact
// contract: an edit to one library function's fault profile moves no
// code byte — image, region, and function hashes are all identical, so
// every store key still matches — yet an -impact resume must not trust
// outcomes cached under the old fault model. Exactly the changed
// callee's cached entries re-execute; everything else replays.
func TestImpactProfileEdit(t *testing.T) {
	const changed = "read"
	cfg := minidbConfig(t)
	cfg.Store = filepath.Join(t.TempDir(), "store")
	cfg.Impact = true

	first, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Executed == 0 || first.Impact != nil {
		t.Fatalf("first run: executed %d, impact %+v; want a plain full run", first.Executed, first.Impact)
	}

	cfg.Profiles = dupReturnProfiles(t, cfg.Profiles, changed)
	second, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.Impact == nil {
		t.Fatal("profile edit produced no impact summary")
	}
	if !reflect.DeepEqual(second.Impact.ProfilesChanged, []string{changed}) {
		t.Fatalf("changed profiles = %v, want [%s]", second.Impact.ProfilesChanged, changed)
	}
	// The binary never changed, so nothing migrates — the only work is
	// re-validating the changed callee's cached outcomes.
	if second.Impact.Migrated != 0 {
		t.Fatalf("pure profile edit migrated %d entries; image is identical", second.Impact.Migrated)
	}
	if second.Impact.Revalidated == 0 {
		t.Fatal("profile edit re-validated nothing")
	}
	// Precision: strictly fewer re-executions than the full space, all
	// of them attributable to the changed callee (the base candidates
	// counted by Revalidated plus their runtime-bred window mutants).
	if second.Executed == 0 || second.Executed >= first.Executed {
		t.Fatalf("profile-edit resume executed %d of %d; want a strict non-empty subset", second.Executed, first.Executed)
	}
	if second.Executed < second.Impact.Revalidated {
		t.Fatalf("executed %d < revalidated %d: a re-validated entry fell through", second.Executed, second.Impact.Revalidated)
	}
	// Every first-run entry is still accounted for exactly once.
	if second.Executed+second.Replayed != first.Executed {
		t.Fatalf("executed %d + replayed %d, want total %d", second.Executed, second.Replayed, first.Executed)
	}
	// The duplicated-return edit is semantically inert: the re-executed
	// outcomes reproduce the cached bugs bit-for-bit.
	if !reflect.DeepEqual(bugSigs(first), bugSigs(second)) {
		t.Fatalf("bug signatures diverged across profile-edit resume:\n%v\nvs\n%v", bugSigs(first), bugSigs(second))
	}

	// The store manifest now records the edited fingerprints: an
	// unchanged rerun replays everything and re-validates nothing.
	third, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if third.Executed != 0 {
		t.Fatalf("identical-profile resume executed %d scenarios", third.Executed)
	}
	if third.Impact != nil && len(third.Impact.ProfilesChanged) != 0 {
		t.Fatalf("identical-profile resume still flags changes: %v", third.Impact.ProfilesChanged)
	}
	if !reflect.DeepEqual(bugSigs(second), bugSigs(third)) {
		t.Fatalf("bug signatures diverged on identical-profile resume:\n%v\nvs\n%v", bugSigs(second), bugSigs(third))
	}
}

// TestImpactFallbackConservative: minidns hides an indirect jump inside
// load_zone (CheckHiddenIndirect). A patch to that function cannot be
// bounded by the CFG walk, so the plan must degrade to whole-shard
// semantics: nothing migrates, the stale entries re-validate, and the
// run-accounting invariant and bug list hold.
func TestImpactFallbackConservative(t *testing.T) {
	const changed = "load_zone"
	cfg, ok := ConfigFor("minidns")
	if !ok {
		t.Fatal("minidns config missing")
	}
	cfg.StallBatches = 1000
	cfg.Workers = 4
	cfg.Store = filepath.Join(t.TempDir(), "store")
	cfg.Impact = true

	first, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Binary = patched(t, cfg.Binary, changed)
	second, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.Impact == nil {
		t.Fatal("impact resume produced no impact summary")
	}
	if !second.Impact.Fallback {
		t.Fatal("indirect branch in the changed function did not force fallback")
	}
	if second.Impact.Migrated != 0 {
		t.Fatalf("fallback plan migrated %d entries; conservative mode must migrate none", second.Impact.Migrated)
	}
	if second.Impact.Revalidated == 0 {
		t.Fatal("fallback plan re-validated nothing")
	}
	if second.Executed+second.Replayed != first.Executed {
		t.Fatalf("executed %d + replayed %d, want total %d", second.Executed, second.Replayed, first.Executed)
	}
	if !reflect.DeepEqual(bugSigs(first), bugSigs(second)) {
		t.Fatalf("bug signatures diverged under fallback:\n%v\nvs\n%v", bugSigs(first), bugSigs(second))
	}
}

// TestDiffReport: `lfi diff` classifies the cached candidate space
// against an edit without executing anything or writing the store.
func TestDiffReport(t *testing.T) {
	const changed = "errmsg_load"
	cfg := minidbConfig(t)
	if _, err := Diff(cfg); err == nil {
		t.Fatal("diff without a store succeeded")
	}
	cfg.Store = filepath.Join(t.TempDir(), "store")
	full, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Binary = patched(t, cfg.Binary, changed)
	before, _ := os.ReadFile(filepath.Join(cfg.Store, cfg.System, "index.json"))
	rep, err := Diff(cfg)
	if err != nil {
		t.Fatal(err)
	}
	after, _ := os.ReadFile(filepath.Join(cfg.Store, cfg.System, "index.json"))
	if !reflect.DeepEqual(before, after) {
		t.Fatal("diff rewrote the store index")
	}
	if rep.PrevImage == "" || rep.Set == nil {
		t.Fatalf("diff found no previous image: %+v", rep)
	}
	if !reflect.DeepEqual(rep.Diff.Changed, []string{changed}) {
		t.Fatalf("diff changed = %v, want [%s]", rep.Diff.Changed, changed)
	}
	if rep.Cached == 0 {
		t.Fatal("no candidate classified cached — unchanged functions keep their keys")
	}
	if rep.Migratable == 0 || rep.Revalidate == 0 {
		t.Fatalf("classification degenerate: %d migratable, %d revalidate", rep.Migratable, rep.Revalidate)
	}
	if rep.Missing != 0 {
		t.Fatalf("%d base candidates missing from a fully-explored store", rep.Missing)
	}
	if rep.Entries == 0 || rep.Entries < full.Executed {
		t.Fatalf("store entries = %d, want >= %d", rep.Entries, full.Executed)
	}
	out := rep.String()
	for _, want := range []string{"diff minidb", changed, "migratable"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report %q missing %q", out, want)
		}
	}

	// An identical binary diffs clean: no previous-image pairing is an
	// acceptable report too, but with the store's manifest present the
	// report must show zero work.
	cfg2 := minidbConfig(t)
	cfg2.Store = cfg.Store
	rep2, err := Diff(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.PrevImage != "" && (rep2.Migratable != 0 || rep2.Revalidate != 0) {
		t.Fatalf("identical binary classified work: %+v", rep2)
	}
	if rep2.PrevImage == "" && rep2.Entries == 0 {
		t.Fatalf("identical-binary diff lost the store: %+v", rep2)
	}
}

// TestStoreEntryStampRetentionPrune: entries are stamped with the
// newest image that references them, and an entry whose stamp falls out
// of manifest retention is pruned even from a shard file that survives
// for other images — the stale shard file actually shrinks.
func TestStoreEntryStampRetentionPrune(t *testing.T) {
	root := t.TempDir()
	st, err := LoadStore(root, "sys", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	st.Put("a@rrrr", Entry{Name: "keeper"})
	st.Put("b@rrrr", Entry{Name: "straggler"})
	if err := st.Save(map[string]bool{"a@rrrr": true, "b@rrrr": true}); err != nil {
		t.Fatal(err)
	}
	shardPath := filepath.Join(root, "sys", "rrrr.json")
	before, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}

	// maxImages-1 later images keep referencing only "a": img@1 stays
	// retained, so the shared shard keeps "b" (stamped img@1).
	for i := 2; i <= maxImages; i++ {
		st, err := LoadStore(root, "sys", fmt.Sprintf("img@%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Save(map[string]bool{"a@rrrr": true}); err != nil {
			t.Fatal(err)
		}
	}
	st2, err := LoadStore(root, "sys", "probe")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Lookup("b@rrrr"); !ok {
		t.Fatal("entry pruned while its image was still retained")
	}

	// One more image evicts img@1's manifest; "b" can never replay
	// again and must leave the shard file.
	st3, err := LoadStore(root, "sys", fmt.Sprintf("img@%d", maxImages+1))
	if err != nil {
		t.Fatal(err)
	}
	if err := st3.Save(map[string]bool{"a@rrrr": true}); err != nil {
		t.Fatal(err)
	}
	if _, ok := st3.Lookup("b@rrrr"); ok {
		t.Fatal("entry survived eviction of every image that referenced it")
	}
	after, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(after), "straggler") {
		t.Fatal("pruned entry still on disk")
	}
	if len(after) >= len(before) {
		t.Fatalf("stale shard file did not shrink: %d -> %d bytes", len(before), len(after))
	}
	st4, err := LoadStore(root, "sys", "probe2")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st4.Lookup("a@rrrr"); !ok {
		t.Fatal("restamped live entry lost")
	}
}

// TestStorePreviousImage: the manifest fingerprints round-trip, and
// manifests predating fingerprint recording are skipped as diff bases.
func TestStorePreviousImage(t *testing.T) {
	root := t.TempDir()
	st, err := LoadStore(root, "sys", "img@old")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := st.PreviousImage(); ok {
		t.Fatal("empty store claims a previous image")
	}
	st.Put("s@rrrr", Entry{Name: "s"})
	st.SetFuncHashes(map[string]string{"alpha": "aaaaaaaaaaaa"})
	if err := st.Save(map[string]bool{"s@rrrr": true}); err != nil {
		t.Fatal(err)
	}

	st2, err := LoadStore(root, "sys", "img@new")
	if err != nil {
		t.Fatal(err)
	}
	img, funcs, ok := st2.PreviousImage()
	if !ok || img != "img@old" || funcs["alpha"] != "aaaaaaaaaaaa" {
		t.Fatalf("previous image lost: %q %v ok=%v", img, funcs, ok)
	}
	// The current image never serves as its own diff base.
	st3, err := LoadStore(root, "sys", "img@old")
	if err != nil {
		t.Fatal(err)
	}
	if img, _, ok := st3.PreviousImage(); ok {
		t.Fatalf("current image offered as its own diff base: %q", img)
	}
}
