package explore

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"lfi/internal/binrec"
	"lfi/internal/coverage"
	"lfi/internal/system"
)

// TestStoreCrashSafePartialWrite pins the crash-safety contract: every
// write goes to a temp file first, so a killed campaign leaves at worst
// a stray .tmp next to an intact snapshot — and a torn snapshot
// (simulated here by truncating the file in place) loads only what it
// holds whole, never half-parsed into the campaign.
func TestStoreCrashSafePartialWrite(t *testing.T) {
	root := t.TempDir()
	st, err := LoadStore(root, "sys", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	good := entryWith("good", "rec.a", "main.x")
	st.Put("good@aaaa", good)
	st.Put("torn@bbbb", entryWith("torn", "rec.b"))
	if err := st.FlushDirty(); err != nil {
		t.Fatal(err)
	}

	// Simulate a kill mid-write: a partial .tmp of the snapshot, and
	// the snapshot itself torn inside its last record.
	dir := filepath.Join(root, "sys")
	snap, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotName+".tmp123"), snap[:len(snap)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotName), snap[:len(snap)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := LoadStore(root, "sys", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := st2.Lookup("good@aaaa"); !ok || !sameEntry(e, good) {
		t.Fatalf("intact record lost or garbled: %+v, %v", e, ok)
	}
	if _, ok := st2.Lookup("torn@bbbb"); ok {
		t.Fatal("partial write was loaded")
	}
	// A torn index must not take the snapshot down with it either.
	if err := os.WriteFile(filepath.Join(dir, indexName), []byte(`{"system":"sy`), 0o644); err != nil {
		t.Fatal(err)
	}
	st3, err := LoadStore(root, "sys", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st3.Lookup("good@aaaa"); !ok {
		t.Fatal("torn index dropped the intact snapshot")
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
// record, with every earlier record intact and the torn one absent; and
// a session appending after a torn tail cuts it off first, so its own
// records replay.
func TestStoreJournalTornTail(t *testing.T) {
	root := t.TempDir()
	st, err := LoadStore(root, "sys", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{"a@rrrr": true, "b@rrrr": true, "c@ssss": true, "d@ssss": true}
	// The entries share one table, as an explorer's fresh outcomes do:
	// the journal holds one table frame, then the four records (the
	// first append of an unindexed store writes index.json, not a
	// snapshot).
	table := newTable([]string{"rec.a@rrrr", "rec.b@rrrr", "rec.c@ssss", "rec.d@ssss"})
	want := map[string]Entry{}
	for _, k := range []string{"a@rrrr", "b@rrrr", "c@ssss", "d@ssss"} {
		want[k] = Entry{Name: k, Injections: 1, table: table, cov: bitsOf(table, "rec."+k)}
		st.Put(k, want[k])
		if err := st.Append(keys); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(root, "sys", snapshotName)); !os.IsNotExist(err) {
		t.Fatalf("appending wrote a snapshot: %v", err)
	}
	path := filepath.Join(root, "sys", journalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the last record by walking the frames.
	last, frames := 0, 0
	for off := 0; off < len(data); frames++ {
		last = off
		off += frameHeader + int(binary.LittleEndian.Uint32(data[off:]))
	}
	if frames != 5 {
		t.Fatalf("journal holds %d frames, want a table frame and 4 records", frames)
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
			if e, ok := st2.Lookup(k); !ok || !sameEntry(e, want[k]) {
				t.Fatalf("cut %d: record %s lost or garbled (%+v)", cut, k, e)
			}
		}
		if _, ok := st2.Lookup("d@ssss"); ok != (cut == len(data)) {
			t.Fatalf("cut %d of %d: torn record loaded = %v", cut, len(data), ok)
		}
	}

	// A full-length last record whose body still decodes but no longer
	// matches its checksum is as torn as a short one.
	forged := append([]byte(nil), data...)
	copy(forged[last:], bytes.Replace(forged[last:], []byte("d@ssss"), []byte("e@ssss"), 1))
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

	// The next session appends behind the torn tail: its record must
	// replay, which it could not after the torn bytes.
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	st4, err := LoadStore(root, "sys", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	f := entryWith("f@ssss", "rec.f")
	st4.Put("f@ssss", f)
	if err := st4.Append(keys); err != nil {
		t.Fatal(err)
	}
	st5, err := LoadStore(root, "sys", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := st5.Lookup("f@ssss"); !ok || !sameEntry(e, f) {
		t.Fatalf("record appended after a torn tail lost: %+v, %v", e, ok)
	}
	if _, ok := st5.Lookup("d@ssss"); ok {
		t.Fatal("torn record resurrected")
	}
}

// TestStoreSnapshotTornTail is the snapshot analogue: a snapshot cut at
// any byte loads whole or as its prefix of intact records, in key
// order, and never yields a garbled entry; a record failing its
// checksum ends the prefix.
func TestStoreSnapshotTornTail(t *testing.T) {
	root := t.TempDir()
	st, err := LoadStore(root, "sys", "img@1")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Entry{
		"a@rrrr": entryWith("a", "rec.a", "main.m"),
		"b@rrrr": {Name: "b", Failed: true, Signature: "workload: crash", Injections: 2},
		"c@rrrr": entryWith("c", "rec.c"),
		"d@ssss": entryWith("d", "rec.a", "rec.d", "rec.z"),
		"e@ssss": {Name: "e", Injections: -1},
	}
	keys := map[string]bool{}
	for k, e := range want {
		st.Put(k, e)
		keys[k] = true
	}
	if err := st.Save(keys); err != nil {
		t.Fatal(err)
	}
	for k, e := range want {
		e.Image = "img@1"
		want[k] = e
	}
	var order []string
	for k := range want {
		order = append(order, k)
	}
	sort.Strings(order)
	path := filepath.Join(root, "sys", snapshotName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshotKeys(t, data); !slices.Equal(got, order) {
		t.Fatalf("snapshot records %v, want %v", got, order)
	}
	prefix := func(what string, data []byte) int {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st2, err := LoadStore(root, "sys", "img@1")
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		n, gap := 0, false
		for _, k := range order {
			e, ok := st2.Lookup(k)
			switch {
			case !ok:
				gap = true
			case gap:
				t.Fatalf("%s: %s loaded after a missing record", what, k)
			case !sameEntry(e, want[k]):
				t.Fatalf("%s: %s garbled: %+v, want %+v", what, k, e, want[k])
			default:
				n++
			}
		}
		if got := st2.Stats().Entries; got != n {
			t.Fatalf("%s: %d entries loaded, %d of them a prefix of the records", what, got, n)
		}
		return n
	}
	// ends[i] is where the header (i = 0) or record i ends: a cut at c
	// must load exactly the records that end at or before it.
	var ends []int
	for off := 0; off < len(data); {
		off += frameHeader + int(binary.LittleEndian.Uint32(data[off:]))
		ends = append(ends, off)
	}
	for cut := 0; cut < len(data); cut++ {
		whole := 0
		for i, end := range ends[1:] {
			if ends[0] <= cut && end <= cut {
				whole = i + 1
			}
		}
		if n := prefix(fmt.Sprintf("cut %d", cut), data[:cut]); n != whole {
			t.Fatalf("cut %d: %d records loaded, want the %d whole ones", cut, n, whole)
		}
	}
	if n := prefix("whole", data); n != len(order) {
		t.Fatalf("whole snapshot loaded %d of %d records", n, len(order))
	}
	// Flip one byte inside the third record: only the two before it
	// load.
	third := 0
	for off, i := 0, 0; i < 3; i++ {
		off += frameHeader + int(binary.LittleEndian.Uint32(data[off:]))
		third = off
	}
	flipped := append([]byte(nil), data...)
	flipped[third+frameHeader+2] ^= 0x40
	if n := prefix("flipped", flipped); n != 2 {
		t.Fatalf("a corrupt third record left %d records loaded, want 2", n)
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

// journalFrame frames one journal record body: length and CRC-32
// header, then the body.
func journalFrame(body string) []byte {
	return appendFrame(nil, func(b []byte) []byte { return append(b, body...) })
}

// bitsOf returns ids, each of which t holds, as a bitset over t.
func bitsOf(t *blockTable, ids ...string) coverage.Bitset {
	b := coverage.NewBitset(len(t.ids))
	for _, id := range ids {
		p, _ := slices.BinarySearch(t.ids, id)
		b.Set(p)
	}
	return b
}

// entryWith returns an entry that covered blocks, over a table of its
// own.
func entryWith(name string, blocks ...string) Entry {
	t := newTable(blocks)
	return Entry{Name: name, Injections: 1, table: t, cov: bitsOf(t, blocks...)}
}

// sameEntry reports whether two entries are Lookup-equal: the same
// fields and the same covered block IDs, whatever tables they are over.
func sameEntry(a, b Entry) bool {
	return a.Name == b.Name && a.Failed == b.Failed && a.Signature == b.Signature &&
		a.Injections == b.Injections && a.Image == b.Image && slices.Equal(a.Blocks(), b.Blocks())
}

// snapshotKeys decodes a snapshot's records and returns their keys, in
// file order; the header must name this format and system "sys".
func snapshotKeys(t testing.TB, data []byte) []string {
	t.Helper()
	end, ok := frameAt(data, 0)
	if !ok {
		t.Fatal("snapshot header torn")
	}
	r := binrec.NewReader(string(data[frameHeader:end]))
	if r.Take(len(snapshotMagic)) != snapshotMagic || r.Uvarint() != storeFormat || r.String() != "sys" {
		t.Fatalf("snapshot header %q", data[:end])
	}
	d := &decoder{table: readTable(&r)}
	var keys []string
	for off := end; off < len(data); off = end {
		if end, ok = frameAt(data, off); !ok || data[off+frameHeader] != tagRecord {
			t.Fatalf("snapshot frame at %d torn or not a record", off)
		}
		key, _, ok := decodeRecord(string(data[off+frameHeader+1:end]), d)
		if !ok {
			t.Fatalf("snapshot record at %d does not decode", off)
		}
		keys = append(keys, key)
	}
	return keys
}

// fuzzSeeds is a real store's bytes: a snapshot with entries over two
// tables, and a journal of binary records.
func fuzzSeeds(f *testing.F) (snapshot, journal []byte) {
	root := f.TempDir()
	st, err := LoadStore(root, "minidb", "img@1")
	if err != nil {
		f.Fatal(err)
	}
	keys := map[string]bool{"a@rrrr": true, "b@rrrr": true, "c@ssss": true}
	st.Put("a@rrrr", entryWith("a", "rec.a", "main.m"))
	st.Put("b@rrrr", Entry{Name: "b", Failed: true, Signature: "sig", Injections: 1})
	st.Put("c@ssss", entryWith("c", "rec.c"))
	if err := st.Save(keys); err != nil {
		f.Fatal(err)
	}
	st.Put("d@ssss", entryWith("d", "rec.d"))
	if err := st.Append(keys); err != nil {
		f.Fatal(err)
	}
	dir := filepath.Join(root, "minidb")
	snapshot, err = os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		f.Fatal(err)
	}
	journal, err = os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		f.Fatal(err)
	}
	return snapshot, journal
}

// FuzzStoreLoad feeds arbitrary bytes to LoadStore as index.json, as the
// snapshot, as a stray fuzz.json beside them (where the previous format
// kept a shard) and as the journal. Loading never panics and fails
// exactly when the index parses and names another system or a format
// other than this one; a following Put + Save creates and removes
// nothing outside the store directory, leaves no journal and leaves
// fuzz.json, which the store does not own, byte for byte in place; and
// a reload returns the Put entry.
func FuzzStoreLoad(f *testing.F) {
	record := func(key, name string) []byte { return appendRecord(nil, key, &Entry{Name: name}, nil) }
	good := record("s@rrrr", "x")
	current := []byte(`{"system":"minidb","format":2,"images":[{"image":"img@1","shards":["rrrr","ssss"]}]}`)
	f.Add([]byte(`{"system":"minidb","format":2,"images":[{"image":"img@1","shards":["rrrr"]}]}`), []byte(nil),
		[]byte(`{"system":"minidb","region":"../../victim","entries":{}}`), []byte(nil))
	f.Add([]byte(`{"system":"other","format":2}`), []byte(nil), []byte(`{"system":"minidb","entries":{"s":{"name":"x","image":"img@0"}}}`), good)
	// Previous-format bytes: an index without a format, and a journal
	// of JSON-body frames.
	f.Add([]byte(`{"system":"minidb","images":[{"image":"img@1","shards":["rrrr"]}]}`), []byte(nil),
		[]byte(`{"entries":{"a":{"blocks":["rec.x"]}}`), journalFrame(`{"key":"s@rrrr","entry":{"name":"x"}}`))
	f.Add([]byte(`null`), []byte(nil), []byte(`{}`), []byte{})
	// A forged region, a torn length prefix, a bad checksum, a key
	// without '@'.
	f.Add(current, []byte(nil), []byte(`{}`), record("s@../../victim", "x"))
	f.Add(current, []byte(nil), []byte(`{}`), append(good, 0x2a, 0))
	bad := record("t@rrrr", "y")
	bad[4] ^= 0xff
	f.Add(current, []byte(nil), []byte(`{}`), append(append([]byte(nil), good...), bad...))
	f.Add(current, []byte(nil), []byte(`{}`), append(record("noat", ""), good...))
	// An index with a field this build does not know.
	f.Add([]byte(`{"system":"minidb","format":2,"cost":{"gain_per_run":0.5,"batches":3,"runs_per_sec":{"local":900}}}`), []byte(nil), []byte(`{}`), good)
	// A real snapshot and journal: whole, under an index in this format
	// and in a newer one, torn, corrupt, beside a stray JSON file, and
	// as each other's bytes.
	snap, journal := fuzzSeeds(f)
	f.Add(current, snap, []byte(nil), journal)
	f.Add([]byte(`{"system":"minidb","format":3}`), snap, []byte(nil), journal)
	f.Add(current, snap[:len(snap)-7], []byte(nil), journal[:len(journal)-1])
	flipped := append([]byte(nil), snap...)
	flipped[len(flipped)/2] ^= 1
	f.Add([]byte(`{"system":"mi`), flipped, []byte(`{"system":"minidb","entries":{"a":{"name":"x","blocks":["rec.a"]}}}`), journal)
	f.Add(current, journal, []byte(nil), snap)
	f.Fuzz(func(t *testing.T, index, snapshot, shard, journal []byte) {
		base := t.TempDir()
		root := filepath.Join(base, "store")
		dir := filepath.Join(root, "minidb")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range map[string][]byte{
			filepath.Join(base, "victim.json"): []byte("{}\n"),
			filepath.Join(dir, indexName):      index,
			filepath.Join(dir, snapshotName):   snapshot,
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

		var idx storeIndex
		refused := json.Unmarshal(index, &idx) == nil && (idx.System != "" && idx.System != "minidb" || idx.Format != storeFormat)
		st, err := LoadStore(root, "minidb", "img@1")
		if refused {
			if err == nil || !strings.Contains(err.Error(), dir) {
				t.Fatalf("LoadStore under index %q: %v, want an error naming %s", index, err, dir)
			}
			return
		}
		if err != nil {
			t.Fatalf("LoadStore: %v", err)
		}
		want := entryWith("probe", "rec.a")
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
		if data, err := os.ReadFile(filepath.Join(dir, "fuzz.json")); err != nil || !bytes.Equal(data, shard) {
			t.Fatalf("Save moved or rewrote fuzz.json, a file the store does not own: %q, %v", data, err)
		}
		st2, err := LoadStore(root, "minidb", "img@1")
		if err != nil {
			t.Fatalf("reload: %v", err)
		}
		got, ok := st2.Lookup("probe@rrrr")
		want.Image = "img@1"
		if !ok || !sameEntry(got, want) {
			t.Fatalf("reload lost the Put entry: %+v, %v", got, ok)
		}
	})
}

// TestStoreRefusesPreviousFormat: a minidb store in the previous format
// — an index without "format", a <region>.json shard and a journal
// of JSON-body records — is refused by every entry point that opens a
// store (LoadStore, Lint, Diff, Explore) with an error naming the
// system's store directory, and none of them creates, removes or
// rewrites a file under the store.
func TestStoreRefusesPreviousFormat(t *testing.T) {
	cfg := configFor(t, "minidb")
	cfg.Store = filepath.Join(t.TempDir(), "store")
	dir := filepath.Join(cfg.Store, cfg.System)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		indexName:   []byte(`{"system":"minidb","images":[{"image":"img@0","shards":["aaaa"]}]}` + "\n"),
		"aaaa.json": []byte(`{"system":"minidb","entries":{"s":{"name":"s","blocks":["rec.x"],"injections":1,"image":"img@0"}}}` + "\n"),
		journalName: journalFrame(`{"key":"t@aaaa","entry":{"name":"t","injections":1}}`),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Back-date every path, so a rewrite shows in its mtime however
	// coarse the file system's clock is.
	old := time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, p := range []string{filepath.Join(dir, indexName), filepath.Join(dir, "aaaa.json"), filepath.Join(dir, journalName), dir, cfg.Store} {
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	state := func() map[string]string {
		t.Helper()
		paths := make(map[string]string)
		err := filepath.WalkDir(cfg.Store, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			fi, err := d.Info()
			if err != nil {
				return err
			}
			paths[p] = fmt.Sprintf("%v %d %v", fi.Mode(), fi.Size(), fi.ModTime().UnixNano())
			if fi.Mode().IsRegular() {
				data, err := os.ReadFile(p)
				if err != nil {
					return err
				}
				paths[p] += fmt.Sprintf(" %x", sha256.Sum256(data))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return paths
	}
	before := state()
	for _, open := range []struct {
		name string
		fn   func() error
	}{
		{"LoadStore", func() error { _, err := LoadStore(cfg.Store, cfg.System, ImageVersion(cfg.Binary)); return err }},
		{"Lint", func() error { _, err := Lint(cfg); return err }},
		{"Diff", func() error { _, err := Diff(cfg); return err }},
		{"Explore", func() error { _, err := Explore(context.Background(), 0, cfg); return err }},
	} {
		if err := open.fn(); err == nil || !strings.Contains(err.Error(), dir) {
			t.Errorf("%s on a previous-format store: %v, want an error naming %s", open.name, err, dir)
		}
	}
	if after := state(); !reflect.DeepEqual(before, after) {
		t.Fatalf("opening a previous-format store changed it:\nbefore %v\nafter  %v", before, after)
	}
}

// TestStoreNewFilesUnreadableByPreviousFormat lists the files of a
// killed store (index and journal) and of a saved one (index and
// snapshot): none is one the previous format's loader would parse as
// entries. It reads every *.json but index.json as a shard, and every
// journal body as JSON.
func TestStoreNewFilesUnreadableByPreviousFormat(t *testing.T) {
	killed, _ := killedStore(t, configFor(t, "minidb"), 3)
	cfg := configFor(t, "minidb")
	cfg.Store = filepath.Join(t.TempDir(), "store")
	if _, err := exploreOne(cfg); err != nil {
		t.Fatal(err)
	}
	for _, root := range []string{killed, cfg.Store} {
		dir := filepath.Join(root, cfg.System)
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != 2 {
			t.Fatalf("%s holds %d files, want an index and a journal or a snapshot", dir, len(files))
		}
		for _, f := range files {
			name := f.Name()
			switch name {
			case indexName:
			case snapshotName:
				if shard, _ := filepath.Match("*.json", name); shard {
					t.Fatalf("the previous format would read %s as a shard", name)
				}
			case journalName:
				data, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				frames := 0
				for off := 0; off < len(data); frames++ {
					end, ok := frameAt(data, off)
					if !ok {
						t.Fatalf("journal frame at %d torn", off)
					}
					var rec struct {
						Key   string          `json:"key"`
						Entry json.RawMessage `json:"entry"`
					}
					if json.Unmarshal(data[off+frameHeader:end], &rec) == nil {
						t.Fatalf("the previous format would replay journal frame %d", frames)
					}
					off = end
				}
				if frames == 0 {
					t.Fatal("killed store's journal is empty")
				}
			default:
				t.Fatalf("unexpected file %s in %s", name, dir)
			}
		}
	}
}

// TestStoreConvergedResumeWritesNothing: on every registered system,
// sessions run until one executes nothing, and that session leaves
// every path under the store root as it found it: no file rewritten
// (same size and mtime), none created or removed, no .tmp file.
func TestStoreConvergedResumeWritesNothing(t *testing.T) {
	root := filepath.Join(t.TempDir(), "store")
	var cfgs []Config
	for _, d := range system.All() {
		cfg := ConfigForSystem(d)
		cfg.Store = root
		cfgs = append(cfgs, cfg)
	}
	state := func() map[string]string {
		t.Helper()
		paths := make(map[string]string)
		err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if os.IsNotExist(err) && p == root {
				return nil // before the first session
			}
			if err != nil {
				return err
			}
			if strings.Contains(d.Name(), ".tmp") {
				t.Fatalf("temp file %s under the store", p)
			}
			fi, err := d.Info()
			if err != nil {
				return err
			}
			paths[p] = fmt.Sprintf("%v %d %v", fi.Mode(), fi.Size(), fi.ModTime().UnixNano())
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return paths
	}
	for session := 1; session <= 5; session++ {
		before := state()
		res, err := Explore(context.Background(), 0, cfgs...)
		if err != nil {
			t.Fatal(err)
		}
		if res.Executed > 0 {
			continue
		}
		if res.Replayed == 0 {
			t.Fatal("converged session replayed nothing")
		}
		if after := state(); !reflect.DeepEqual(before, after) {
			t.Fatalf("session %d executed nothing but changed the store:\nbefore %v\nafter  %v", session, before, after)
		}
		return
	}
	t.Fatal("no session of five executed nothing")
}
