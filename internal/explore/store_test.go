package explore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"lfi/internal/exec"
)

// TestStoreCrashSafePartialWrite pins the crash-safety satellite: every
// write goes to a temp file first, so a killed campaign leaves at worst
// a stray .tmp alongside intact shards — and a torn shard (simulated
// here by truncating the file in place) is skipped on load, never
// half-parsed into the campaign.
func TestStoreCrashSafePartialWrite(t *testing.T) {
	root := t.TempDir()
	st, err := LoadStore(root, "sys", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	st.Put("good@aaaa", Entry{Name: "good"})
	st.Put("torn@bbbb", Entry{Name: "torn"})
	if err := st.FlushDirty(); err != nil {
		t.Fatal(err)
	}

	// Simulate a kill mid-write: a partial .tmp for one shard, and a
	// truncated (torn) second shard.
	dir := filepath.Join(root, "sys")
	if err := os.WriteFile(filepath.Join(dir, "aaaa.json.tmp123"), []byte(`{"system":"sys","entr`), 0o644); err != nil {
		t.Fatal(err)
	}
	torn, err := os.ReadFile(filepath.Join(dir, "bbbb.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bbbb.json"), torn[:len(torn)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := LoadStore(root, "sys", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Lookup("good@aaaa"); !ok {
		t.Fatal("intact shard lost")
	}
	if _, ok := st2.Lookup("torn@bbbb"); ok {
		t.Fatal("partial write was loaded")
	}
	// A torn index must not take the shards down with it either.
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte(`{"system":"sy`), 0o644); err != nil {
		t.Fatal(err)
	}
	st3, err := LoadStore(root, "sys", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st3.Lookup("good@aaaa"); !ok {
		t.Fatal("torn index dropped intact shards")
	}
}

// TestStoreNotADirectory: a regular file at the store path (such as a
// single-document store from before the shard layout) is refused with
// an error naming the path, and left byte-for-byte untouched; a stray
// <path>.v1 next to a missing store is ignored.
func TestStoreNotADirectory(t *testing.T) {
	t.Run("file-at-path", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "explore.json")
		doc := []byte(`{"system":"sys","entries":{"s1@aaaa":{"name":"one"}}}`)
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadStore(path, "sys", "img@1")
		if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "not a store directory") {
			t.Fatalf("file at store path: got %v, want a not-a-store-directory error naming %s", err, path)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, doc) {
			t.Fatalf("refused file was modified: %q (%v)", got, err)
		}
	})
	t.Run("stray-v1", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "explore.json")
		if err := os.WriteFile(path+".v1", []byte(`{"system":"sys","entries":{"s1@aaaa":{"name":"one"}}}`), 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := LoadStore(path, "sys", "img@1")
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Stats().Entries; got != 0 {
			t.Fatalf("stray .v1 yielded %d entries", got)
		}
		if _, err := os.Stat(path + ".v1"); err != nil {
			t.Fatalf("stray .v1 touched: %v", err)
		}
	})
}

// TestStoreConcurrentShardFlush is the -race satellite: two workers
// exploring the same system write disjoint shards concurrently —
// interleaved Puts and per-shard flushes — and no entry is lost.
func TestStoreConcurrentShardFlush(t *testing.T) {
	root := t.TempDir()
	st, err := LoadStore(root, "sys", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	const perWorker = 200
	keys := make(map[string]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			region := fmt.Sprintf("shard%d", w)
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("scen%d@%s", i, region)
				st.Put(key, Entry{Name: fmt.Sprintf("w%d-%d", w, i)})
				mu.Lock()
				keys[key] = true
				mu.Unlock()
				if i%10 == 9 {
					if err := st.FlushShard(region); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := st.Save(keys); err != nil {
		t.Fatal(err)
	}

	st2, err := LoadStore(root, "sys", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	for key := range keys {
		if _, ok := st2.Lookup(key); !ok {
			t.Fatalf("entry %s lost", key)
		}
	}
	if got := st2.Shards(); len(got) != 2 {
		t.Fatalf("want 2 shards, have %v", got)
	}
}

// TestStoreConcurrentSameShardFlush: flushes of the SAME region are
// linearized — interleaved Put/FlushShard from two workers can never
// durably persist an older snapshot over a newer one.
func TestStoreConcurrentSameShardFlush(t *testing.T) {
	root := t.TempDir()
	st, err := LoadStore(root, "sys", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				st.Put(fmt.Sprintf("w%d-%d@shared", w, i), Entry{Name: "e"})
				if i%7 == 6 {
					if err := st.FlushShard("shared"); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := st.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	st2, err := LoadStore(root, "sys", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 2; w++ {
		for i := 0; i < perWorker; i++ {
			key := fmt.Sprintf("w%d-%d@shared", w, i)
			if _, ok := st2.Lookup(key); !ok {
				t.Fatalf("entry %s lost in same-shard flush race", key)
			}
		}
	}
}

// TestStoreImageRetention: manifests are capped, and shards referenced
// only by evicted images are garbage-collected.
func TestStoreImageRetention(t *testing.T) {
	root := t.TempDir()
	for i := 0; i < maxImages+3; i++ {
		st, err := LoadStore(root, "sys", fmt.Sprintf("img@%d", i))
		if err != nil {
			t.Fatal(err)
		}
		// Every image shares shard "common" and owns one private shard;
		// alternating images also share one of two "pair" shards.
		keys := map[string]bool{
			"s@common":                   true,
			fmt.Sprintf("s@only%d", i):   true,
			fmt.Sprintf("s@pair%d", i%2): true,
		}
		for k := range keys {
			if _, ok := st.Lookup(k); !ok {
				st.Put(k, Entry{Name: k})
			}
		}
		if err := st.Save(keys); err != nil {
			t.Fatal(err)
		}
	}
	st, err := LoadStore(root, "sys", "img@final")
	if err != nil {
		t.Fatal(err)
	}
	if imgs := st.Images(); len(imgs) != maxImages {
		t.Fatalf("retained %d manifests, want %d: %v", len(imgs), maxImages, imgs)
	}
	if _, ok := st.Lookup("s@common"); !ok {
		t.Fatal("shared shard evicted")
	}
	if _, ok := st.Lookup("s@only0"); ok {
		t.Fatal("evicted image's private shard survived")
	}
	last := fmt.Sprintf("s@only%d", maxImages+2)
	if _, ok := st.Lookup(last); !ok {
		t.Fatal("latest image's private shard lost")
	}
}

// TestStoreCostModelRoundTrip: the execution cost model persists in the
// store index across load/save cycles — a resumed session schedules on
// the economics the last one measured.
func TestStoreCostModelRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	st, err := LoadStore(path, "sys", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.CostModel(); ok {
		t.Fatal("fresh store claims a cost model")
	}
	want := exec.CostModel{
		GainPerRun: 0.25,
		Batches:    7,
		Speed:      map[string]float64{"local": 1200, "remote(h:1)": 3400},
	}
	st.SetCostModel(want)
	st.Put("scen@aaaa", Entry{Name: "scen"})
	if err := st.Save(map[string]bool{"scen@aaaa": true}); err != nil {
		t.Fatal(err)
	}

	st2, err := LoadStore(path, "sys", "img@2")
	if err != nil {
		t.Fatal(err)
	}
	got, ok := st2.CostModel()
	if !ok {
		t.Fatal("cost model lost across load")
	}
	if got.GainPerRun != want.GainPerRun || got.Batches != want.Batches ||
		got.Speed["local"] != 1200 || got.Speed["remote(h:1)"] != 3400 {
		t.Fatalf("cost model mangled: %+v vs %+v", got, want)
	}
}

// TestStoreShardRegionIsFileName: a shard's region is its file name,
// never a field inside the file. A shard claiming the region
// "../../victim" must not make Save reach outside the store: the file
// two directories above the system's shard directory survives, and the
// unreferenced shard itself is what gets collected.
func TestStoreShardRegionIsFileName(t *testing.T) {
	base := t.TempDir()
	root := filepath.Join(base, "store")
	dir := filepath.Join(root, "minidb")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(base, "victim.json")
	if err := os.WriteFile(victim, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	evil := filepath.Join(dir, "evil.json")
	if err := os.WriteFile(evil, []byte(`{"system":"minidb","region":"../../victim","entries":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := LoadStore(root, "minidb", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	st.Put("s@rrrr", Entry{Name: "s"})
	if err := st.Save(map[string]bool{"s@rrrr": true}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(victim); err != nil {
		t.Fatalf("Save removed a file outside the store: %v", err)
	}
	if _, err := os.Stat(evil); !os.IsNotExist(err) {
		t.Fatalf("unreferenced shard evil.json not collected: %v", err)
	}
}

// FuzzStoreLoad feeds arbitrary bytes to LoadStore as index.json and as
// one shard file. Loading never panics and fails only on a
// foreign-system index; a following Put + Save creates and removes
// nothing outside the store directory; and a reload returns the Put
// entry.
func FuzzStoreLoad(f *testing.F) {
	f.Add([]byte(`{"system":"minidb","images":[{"image":"img@1","shards":["rrrr"]}]}`),
		[]byte(`{"system":"minidb","region":"../../victim","entries":{}}`))
	f.Add([]byte(`{"system":"other"}`), []byte(`{"system":"minidb","entries":{"s":{"name":"x","image":"img@0"}}}`))
	f.Add([]byte(`null`), []byte(`{"entries":{"a":{"blocks":["rec.x"]}}`))
	f.Fuzz(func(t *testing.T, index, shard []byte) {
		base := t.TempDir()
		root := filepath.Join(base, "store")
		dir := filepath.Join(root, "minidb")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range map[string][]byte{
			filepath.Join(base, "victim.json"): []byte("{}\n"),
			filepath.Join(dir, "index.json"):   index,
			filepath.Join(dir, "fuzz.json"):    shard,
		} {
			if err := os.WriteFile(name, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		outside := func() []string {
			var paths []string
			err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if p == root {
					return filepath.SkipDir
				}
				paths = append(paths, p)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return paths
		}
		before := outside()

		st, err := LoadStore(root, "minidb", "img@1")
		if err != nil {
			var idx struct{ System string }
			if json.Unmarshal(index, &idx) == nil && idx.System != "" && idx.System != "minidb" {
				return // a foreign-system index is refused, by design
			}
			t.Fatalf("LoadStore: %v", err)
		}
		want := Entry{Name: "probe", Blocks: []string{"rec.a"}, Injections: 1}
		st.Put("probe@rrrr", want)
		if err := st.Save(map[string]bool{"probe@rrrr": true}); err != nil {
			t.Fatalf("Save: %v", err)
		}
		if after := outside(); !reflect.DeepEqual(before, after) {
			t.Fatalf("Save touched paths outside the store:\nbefore %v\nafter  %v", before, after)
		}
		st2, err := LoadStore(root, "minidb", "img@1")
		if err != nil {
			t.Fatalf("reload: %v", err)
		}
		got, ok := st2.Lookup("probe@rrrr")
		want.Image = "img@1"
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("reload lost the Put entry: %+v, %v", got, ok)
		}
	})
}
