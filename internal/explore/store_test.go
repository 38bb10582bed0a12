package explore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
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

// TestStoreConcurrentShardFlush is the -race check of the write path:
// two workers exploring the same system write disjoint shards
// concurrently — interleaved Puts, per-batch journal appends and
// snapshot flushes — and no entry is lost, neither from the journal
// replayed over the snapshots nor from the compacted store.
func TestStoreConcurrentShardFlush(t *testing.T) {
	concurrentStoreWrites(t, func(w int) string { return fmt.Sprintf("shard%d", w) })
}

// TestStoreConcurrentSameShardFlush: the same with both workers on ONE
// region, where a flush's snapshot and its journal removal race the
// other worker's Puts and appends: an append landing between the two
// would be removed with the journal unless the store serializes them.
func TestStoreConcurrentSameShardFlush(t *testing.T) {
	concurrentStoreWrites(t, func(int) string { return "shared" })
}

// concurrentStoreWrites runs two workers that each Put 200 entries into
// region(w), appending after every 10th and flushing after every 25th,
// then checks every entry survives a reload of the journaled store and
// of the saved one, and that Save leaves no journal.
func concurrentStoreWrites(t *testing.T, region func(w int) string) {
	t.Helper()
	root := t.TempDir()
	st, err := LoadStore(root, "sys", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	const perWorker = 200
	key := func(w, i int) string { return fmt.Sprintf("w%d-%d@%s", w, i, region(w)) }
	keys, regions := make(map[string]bool), make(map[string]bool)
	for w := 0; w < 2; w++ {
		regions[region(w)] = true
		for i := 0; i < perWorker; i++ {
			keys[key(w, i)] = true
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				st.Put(key(w, i), Entry{Name: key(w, i)})
				var err error
				switch {
				case i%25 == 24:
					err = st.FlushDirty()
				case i%10 == 9:
					err = st.Append(keys)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := st.Append(keys); err != nil {
		t.Fatal(err)
	}
	reload := func(what string) {
		t.Helper()
		st2, err := LoadStore(root, "sys", "img@1")
		if err != nil {
			t.Fatal(err)
		}
		for k := range keys {
			if e, ok := st2.Lookup(k); !ok || e.Name != k {
				t.Fatalf("%s: entry %s lost (%+v)", what, k, e)
			}
		}
		if got := st2.Shards(); len(got) != len(regions) {
			t.Fatalf("%s: want %d shards, have %v", what, len(regions), got)
		}
	}
	reload("journaled store")
	if err := st.Save(keys); err != nil {
		t.Fatal(err)
	}
	reload("saved store")
	if _, err := os.Stat(filepath.Join(root, "sys", journalName)); !os.IsNotExist(err) {
		t.Fatalf("Save left the journal behind: %v", err)
	}
}

// TestStoreJournalTornTail: a kill mid-append leaves the last record
// torn at an arbitrary byte. Load must succeed at every cut inside that
// record, with every earlier record (and the snapshot under them)
// intact and the torn one absent.
func TestStoreJournalTornTail(t *testing.T) {
	root := t.TempDir()
	st, err := LoadStore(root, "sys", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{"a@rrrr": true, "b@rrrr": true, "c@ssss": true, "d@ssss": true}
	// The first append of an unindexed store saves: a lands in a
	// snapshot, the rest in the journal.
	for _, k := range []string{"a@rrrr", "b@rrrr", "c@ssss", "d@ssss"} {
		st.Put(k, Entry{Name: k, Blocks: []string{"rec." + k}})
		if err := st.Append(keys); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(root, "sys", journalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the last record by walking the frames: three records.
	last, records := 0, 0
	for off := 0; off < len(data); records++ {
		last = off
		off += journalHeader + int(binary.LittleEndian.Uint32(data[off:]))
	}
	if records != 3 {
		t.Fatalf("journal holds %d records, want 3", records)
	}
	for cut := last; cut <= len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st2, err := LoadStore(root, "sys", "img@1")
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		for _, k := range []string{"a@rrrr", "b@rrrr", "c@ssss"} {
			if e, ok := st2.Lookup(k); !ok || e.Name != k {
				t.Fatalf("cut %d: record %s lost (%+v)", cut, k, e)
			}
		}
		if _, ok := st2.Lookup("d@ssss"); ok != (cut == len(data)) {
			t.Fatalf("cut %d of %d: torn record loaded = %v", cut, len(data), ok)
		}
	}

	// A full-length last record whose body still parses but no longer
	// matches its checksum is as torn as a short one.
	forged := append([]byte(nil), data...)
	copy(forged[last:], bytes.Replace(forged[last:], []byte(`"d@ssss"`), []byte(`"e@ssss"`), 1))
	if err := os.WriteFile(path, forged, 0o644); err != nil {
		t.Fatal(err)
	}
	st3, err := LoadStore(root, "sys", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st3.Lookup("e@ssss"); ok {
		t.Fatal("a record failing its checksum was replayed")
	}
	if _, ok := st3.Lookup("c@ssss"); !ok {
		t.Fatal("records before the corrupt one lost")
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

// oldCostIndex is a minidb index.json as written when the store also
// persisted per-backend runs/sec: its "cost" carries "runs_per_sec"
// next to the gain EWMA.
func oldCostIndex(t testing.TB) []byte {
	data, err := os.ReadFile(filepath.Join("testdata", "index_runs_per_sec.json"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestStoreOldCostIndex: an index that still persists runs/sec loads
// with that field ignored and its gain EWMA intact, and the next Save
// writes "cost" as the gain EWMA alone — the runs/sec are dropped, not
// reinterpreted.
func TestStoreOldCostIndex(t *testing.T) {
	old := oldCostIndex(t)
	var want struct {
		Cost struct {
			GainPerRun float64            `json:"gain_per_run"`
			Batches    int                `json:"batches"`
			Speed      map[string]float64 `json:"runs_per_sec"`
		} `json:"cost"`
	}
	if err := json.Unmarshal(old, &want); err != nil || len(want.Cost.Speed) == 0 || want.Cost.Batches == 0 {
		t.Fatalf("fixture is not an index with runs/sec: %+v, %v", want.Cost, err)
	}
	root := filepath.Join(t.TempDir(), "store")
	dir := filepath.Join(root, "minidb")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "index.json"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := LoadStore(root, "minidb", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	if got := st.gain(); got != (gainEWMA{PerRun: want.Cost.GainPerRun, Batches: want.Cost.Batches}) {
		t.Fatalf("loaded gain %+v, want %+v", got, want.Cost)
	}
	st.Put("scen@aaaa", Entry{Name: "scen"})
	if err := st.Save(map[string]bool{"scen@aaaa": true}); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Cost map[string]any `json:"cost"`
	}
	if err := json.Unmarshal(saved, &got); err != nil {
		t.Fatal(err)
	}
	if wantCost := map[string]any{"gain_per_run": want.Cost.GainPerRun, "batches": float64(want.Cost.Batches)}; !reflect.DeepEqual(got.Cost, wantCost) {
		t.Fatalf("saved cost %v, want %v", got.Cost, wantCost)
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

// journalFrame frames one journal record body: length and CRC-32
// header, then the body.
func journalFrame(body string) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE([]byte(body)))
	return append(out, body...)
}

// FuzzStoreLoad feeds arbitrary bytes to LoadStore as index.json, as
// one shard file and as the journal. Loading never panics and fails
// only on a foreign-system index; a following Put + Save creates and
// removes nothing outside the store directory and leaves no journal;
// and a reload returns the Put entry.
func FuzzStoreLoad(f *testing.F) {
	good := journalFrame(`{"key":"s@rrrr","entry":{"name":"x"}}`)
	f.Add([]byte(`{"system":"minidb","images":[{"image":"img@1","shards":["rrrr"]}]}`),
		[]byte(`{"system":"minidb","region":"../../victim","entries":{}}`), []byte(nil))
	f.Add([]byte(`{"system":"other"}`), []byte(`{"system":"minidb","entries":{"s":{"name":"x","image":"img@0"}}}`), good)
	f.Add([]byte(`null`), []byte(`{"entries":{"a":{"blocks":["rec.x"]}}`), []byte{})
	// A forged region, a torn length prefix, a bad checksum, a key
	// without '@'.
	f.Add([]byte(`null`), []byte(`{}`), journalFrame(`{"key":"s@../../victim","entry":{"name":"x"}}`))
	f.Add([]byte(`null`), []byte(`{}`), append(good, 0x2a, 0))
	bad := journalFrame(`{"key":"t@rrrr","entry":{"name":"y"}}`)
	bad[4] ^= 0xff
	f.Add([]byte(`null`), []byte(`{}`), append(append([]byte(nil), good...), bad...))
	f.Add([]byte(`null`), []byte(`{}`), append(journalFrame(`{"key":"noat","entry":{}}`), good...))
	// An index that still persists per-backend runs/sec.
	f.Add(oldCostIndex(f), []byte(`{}`), good)
	f.Fuzz(func(t *testing.T, index, shard, journal []byte) {
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
			filepath.Join(dir, journalName):    journal,
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
		if _, err := os.Stat(filepath.Join(dir, journalName)); !os.IsNotExist(err) {
			t.Fatalf("Save left the journal behind: %v", err)
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
