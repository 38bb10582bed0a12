package explore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lfi/internal/profile"
)

// TestImpactInvalidation pins the diff-aware resume contract: after an
// inert patch to one minidb function, a resume re-executes only the
// scenarios whose recorded coverage the edit can reach — strictly
// fewer than the whole-shard fallback on the same edit — while keeping
// the every-entry-exactly-once invariant and the full bug list. An
// identical-binary resume still executes nothing.
func TestImpactInvalidation(t *testing.T) {
	const changed = "errmsg_load"

	// The first run has no previous image and must be a plain full run.
	cfg := configFor(t, "minidb")
	cfg.Store = filepath.Join(t.TempDir(), "store")
	first, err := exploreOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Executed == 0 || first.Replayed != 0 || first.Impact != nil {
		t.Fatalf("first run: executed %d, replayed %d, impact %+v; want a plain full run",
			first.Executed, first.Replayed, first.Impact)
	}

	// Whole-shard baseline: the same edit resumed from a copy of the
	// store whose manifests carry no function fingerprints, so the plan
	// cannot be built and the resume takes the fallback arm.
	wcfg := cfg
	wcfg.Store = filepath.Join(t.TempDir(), "store")
	copyStoreWithoutFingerprints(t, cfg.Store, wcfg.Store, cfg.System)
	wcfg.Binary = patched(t, cfg.Binary, changed)
	whole, err := exploreOne(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if whole.Impact != nil {
		t.Fatalf("fingerprint-less store still built an impact plan: %s", whole.Impact)
	}

	cfg.Binary = patched(t, cfg.Binary, changed)
	second, err := exploreOne(cfg)
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

	// Identical binary: everything replays, nothing executes, and the
	// plan (built against the pre-patch manifest) neither migrates nor
	// re-validates anything.
	third, err := exploreOne(cfg)
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

// copyStoreWithoutFingerprints copies one system's store directory from
// src to dst, dropping every manifest's function fingerprints — the
// shape of a store written before fingerprints were recorded, which
// leaves the resume path only whole-shard invalidation.
func copyStoreWithoutFingerprints(t *testing.T, src, dst, sys string) {
	t.Helper()
	from, to := filepath.Join(src, sys), filepath.Join(dst, sys)
	if err := os.MkdirAll(to, 0o755); err != nil {
		t.Fatal(err)
	}
	names := []string{filepath.Join(from, indexName), filepath.Join(from, snapshotName)}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(name) == indexName {
			var idx storeIndex
			if err := json.Unmarshal(data, &idx); err != nil {
				t.Fatal(err)
			}
			for i := range idx.Images {
				idx.Images[i].Funcs = nil
			}
			if data, err = json.Marshal(idx); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(to, filepath.Base(name)), data, 0o644); err != nil {
			t.Fatal(err)
		}
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
// every store key still matches — yet a resume must not trust
// outcomes cached under the old fault model. Exactly the changed
// callee's cached entries re-execute; everything else replays.
func TestImpactProfileEdit(t *testing.T) {
	const changed = "read"
	cfg := configFor(t, "minidb")
	cfg.Store = filepath.Join(t.TempDir(), "store")

	first, err := exploreOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Executed == 0 || first.Impact != nil {
		t.Fatalf("first run: executed %d, impact %+v; want a plain full run", first.Executed, first.Impact)
	}

	cfg.Profiles = dupReturnProfiles(t, cfg.Profiles, changed)
	second, err := exploreOne(cfg)
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
	// Pinned numbers for this exact edit under default settings: read's
	// 40 cached base entries re-validate, and with the window mutants
	// they re-breed that is 176 of minidb's 376 runs.
	if first.Executed != 376 || second.Executed != 176 || second.Impact.Revalidated != 40 {
		t.Fatalf("profile-edit resume executed %d of %d (revalidated %d), want 176 of 376 (40)",
			second.Executed, first.Executed, second.Impact.Revalidated)
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
	third, err := exploreOne(cfg)
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
	cfg := configFor(t, "minidns")
	cfg.Store = filepath.Join(t.TempDir(), "store")

	first, err := exploreOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Binary = patched(t, cfg.Binary, changed)
	second, err := exploreOne(cfg)
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
	cfg := configFor(t, "minidb")
	if _, err := Diff(cfg); err == nil {
		t.Fatal("diff without a store succeeded")
	}
	cfg.Store = filepath.Join(t.TempDir(), "store")
	full, err := exploreOne(cfg)
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
	cfg2 := configFor(t, "minidb")
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

	// A fault-profile edit moves no code byte, yet the diff previews it
	// with the resume's own rule: the changed callee's cached entries
	// re-validate — the 40 TestImpactProfileEdit's resume re-validates.
	cfg3 := configFor(t, "minidb")
	cfg3.Store = cfg.Store
	cfg3.Profiles = dupReturnProfiles(t, cfg3.Profiles, "read")
	rep3, err := Diff(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep3.ProfilesChanged, []string{"read"}) || rep3.Revalidate != 40 || rep3.Migratable != 0 || rep3.Missing != 0 {
		t.Fatalf("profile-edit diff: profiles %v, %d revalidate, %d migratable, %d missing; want [read], 40, 0, 0",
			rep3.ProfilesChanged, rep3.Revalidate, rep3.Migratable, rep3.Missing)
	}
	if out := rep3.String(); !strings.Contains(out, "fault profiles changed (1): read") || strings.Contains(out, "nothing to diff") {
		t.Fatalf("profile-edit diff report %q does not name the edit", out)
	}
}

// TestStoreEntryStampRetentionPrune: entries are stamped with the
// newest image that references them, and an entry whose stamp falls out
// of manifest retention is pruned even from a region that survives for
// other images — the snapshot's record count actually shrinks.
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
	snapPath := filepath.Join(root, "sys", snapshotName)
	before, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshotKeys(t, before); !slices.Equal(got, []string{"a@rrrr", "b@rrrr"}) {
		t.Fatalf("snapshot records %v, want a and b", got)
	}

	// maxImages-1 later images keep referencing only "a": img@1 stays
	// retained, so the shared region keeps "b" (stamped img@1).
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
	// again and must leave the snapshot.
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
	after, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(after), "straggler") {
		t.Fatal("pruned entry still on disk")
	}
	if got := snapshotKeys(t, after); !slices.Equal(got, []string{"a@rrrr"}) {
		t.Fatalf("snapshot records %v after the prune, want only a", got)
	}
	if len(after) >= len(before) {
		t.Fatalf("snapshot did not shrink: %d -> %d bytes", len(before), len(after))
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

// TestImpactProfileEditAgedStore: a fault-profile edit re-validates the
// changed callee's cached outcomes even when the store still retains an
// older image the resume diffs code against. Explore image A, then B
// (one-function patch), then B with read's profile edited: the third
// resume must execute exactly what the same edit costs on a store that
// only ever held B, migrate nothing across the profile edit, and count
// each re-validated entry once.
func TestImpactProfileEditAgedStore(t *testing.T) {
	const changed = "read"
	base := configFor(t, "minidb")
	imageB := patched(t, base.Binary, "errmsg_load")
	edited := dupReturnProfiles(t, base.Profiles, changed)

	control := base
	control.Binary = imageB
	control.Store = filepath.Join(t.TempDir(), "store")
	if _, err := exploreOne(control); err != nil {
		t.Fatal(err)
	}
	control.Profiles = edited
	want, err := exploreOne(control)
	if err != nil {
		t.Fatal(err)
	}

	aged := base
	aged.Store = filepath.Join(t.TempDir(), "store")
	first, err := exploreOne(aged)
	if err != nil {
		t.Fatal(err)
	}
	aged.Binary = imageB
	if _, err := exploreOne(aged); err != nil {
		t.Fatal(err)
	}
	aged.Profiles = edited
	got, err := exploreOne(aged)
	if err != nil {
		t.Fatal(err)
	}
	if got.Impact == nil || !reflect.DeepEqual(got.Impact.ProfilesChanged, []string{changed}) {
		t.Fatalf("aged-store profile edit: impact %+v, want profiles [%s]", got.Impact, changed)
	}
	if want.Executed != 176 || got.Executed != want.Executed {
		t.Fatalf("aged-store profile edit executed %d, B-only store %d; want both 176", got.Executed, want.Executed)
	}
	if got.Impact.Migrated != 0 || got.Impact.Revalidated != 40 {
		t.Fatalf("aged-store profile edit migrated %d, revalidated %d; want 0, 40 (cached under the old fault model, counted once)",
			got.Impact.Migrated, got.Impact.Revalidated)
	}
	if got.Executed+got.Replayed != first.Executed {
		t.Fatalf("executed %d + replayed %d, want total %d", got.Executed, got.Replayed, first.Executed)
	}
	if !reflect.DeepEqual(bugSigs(want), bugSigs(got)) {
		t.Fatalf("bug signatures diverged:\n%v\nvs\n%v", bugSigs(want), bugSigs(got))
	}
}
