package explore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"lfi/internal/binrec"
	"lfi/internal/callgraph"
	"lfi/internal/coverage"
)

// Store is the persistent campaign store. Outcomes are keyed by
// scenario content hash plus targeted-code-region hash
// ("scenarioHash@codeHash"), and each system keeps three files:
//
//	<dir>/<system>/index.json   image manifests (newest first), JSON
//	<dir>/<system>/snapshot     every entry, one record per key, sorted
//	<dir>/<system>/journal      records appended since the last Save
//
// A region (the @codeHash half of a key) is what the manifests list,
// never a file name, which buys two properties:
//
//   - Stores from multiple image versions coexist. Each image version
//     saves a manifest naming the regions its candidate set references;
//     versions that share a region share its entries, so entries
//     migrate forward for free when only untargeted code changed, and a
//     region's entries are dropped only when no retained manifest
//     references it.
//   - A code change to one application function moves that function's
//     region hash, so exactly that region is invalidated; everything
//     else replays untouched.
//
// The snapshot and the journal share one binary record (appendRecord,
// decodeRecord) inside one frame: uint32 LE body length, uint32 LE
// CRC-32 (IEEE) of the body, the body. A record's coverage is a bitset
// over a block-ID table declared once: the snapshot's header frame
// holds its table, and the journal carries a table frame before the
// first record over each table.
//
// Persistence has two speeds. Append, once per batch, writes the
// batch's records to the journal in one O_APPEND write. Save, once per
// session, is the compaction point: it writes the snapshot (only when
// an entry changed) and index.json (only when its bytes changed), each
// through a temp file and an atomic rename, and only then removes the
// journal. LoadStore replays the journal over the snapshot and ignores
// stray .tmp files, a torn snapshot or journal tail past its last whole
// record, and an unparsable index, so a killed campaign loses at most
// the batch it was writing. It reads those three files and no other,
// and refuses a store whose index names another format.
type Store struct {
	dir    string // <root>/<system>
	system string
	image  string

	// mu guards the store's state and serializes its disk writers
	// (Append, FlushDirty, Save, SaveSummaries), which hold it across
	// their IO: no Put or append can land between a snapshot and the
	// journal removal that follows it.
	mu      sync.Mutex
	entries map[string]Entry // candidate key -> outcome
	// loaded lists, once each, the keys read from disk (vs Put this run).
	loaded []string
	// dirty reports entries the snapshot on disk does not hold as they
	// are in memory.
	dirty bool
	index storeIndex
	// indexData is index.json as last read or written: an index write
	// that would not change it is skipped.
	indexData []byte
	// indexed reports a manifest on disk: index.json loaded, or written
	// since. Append writes one first while it is false.
	indexed bool

	// journal is the journal file Append opened, until the next flush
	// closes it; jsize is the length of its whole records at load, where
	// the first Append cuts off a torn tail before appending.
	journal *os.File
	jsize   int64
	// jbuf holds the journal frames of every Put since the last Append
	// or flush; jtable is the table the journal's latest table frame
	// (in jbuf or already written) declares.
	jbuf   []byte
	jtable *blockTable

	// funcs is the current image's per-function fingerprint map,
	// recorded into its manifest at Save — the impact metadata a later
	// session diffs against without needing the old binary.
	funcs map[string]string
	// profiles is the current profile set's per-function fingerprint
	// map (impact.ProfileHashes), recorded alongside funcs.
	profiles map[string]string
	// summaries is the current image's interprocedural analysis record
	// (callgraph.Summaries), persisted in the manifest next to funcs so
	// a later lint or explore session recomputes only the summaries an
	// edit can reach.
	summaries callgraph.Summaries
	// adopted records old-image keys whose entries the stale-outcome
	// rule migrated forward this run (Adopt), so compaction stats count
	// them as migrated rather than invalidated.
	adopted map[string]bool

	// migrated/invalidated are computed by Save from the loaded keys:
	// how many on-disk entries the current image's manifest still
	// references vs how many it can no longer reach (stale code region,
	// or pruned from an exclusive region).
	migrated    int
	invalidated int
}

// storeIndex is the on-disk index.json shape.
type storeIndex struct {
	System string `json:"system"`
	// Format is the store format the snapshot and journal are in;
	// LoadStore refuses an index in any other.
	Format int             `json:"format,omitempty"`
	Images []imageManifest `json:"images"` // most recent save first
}

// imageManifest names the regions one image version's candidate set
// references, plus that image's per-function code fingerprints — the
// impact metadata the resume path diffs against. A manifest saved with
// no fingerprints set has Funcs nil; the resume path then falls back to
// whole-region invalidation.
type imageManifest struct {
	Image  string            `json:"image"`
	Shards []string          `json:"shards"`
	Funcs  map[string]string `json:"funcs,omitempty"`
	// Profiles fingerprints the library fault profiles the candidate
	// set was generated from (impact.ProfileHashes). A profile edit
	// moves no code byte — image and region hashes all stay put — so
	// this is the only record that lets a later session spot
	// one and re-validate the affected callees' cached outcomes.
	Profiles map[string]string `json:"profiles,omitempty"`
	// Summaries is the image's per-function interprocedural analysis
	// record, content-addressed by the same fingerprints as Funcs.
	// `lfi lint` and the explorer's static prior reuse every summary
	// whose function body is unchanged.
	Summaries callgraph.Summaries `json:"summaries,omitempty"`
}

// Entry is one cached scenario outcome.
type Entry struct {
	Name       string
	Failed     bool
	Signature  string
	Injections int
	// Image is the newest image version whose candidate set referenced
	// this entry (stamped by Save). An entry whose image falls out of
	// manifest retention is pruned even when its region survives for
	// other images; "" (an entry a journal replayed before any Save
	// stamped it) keeps the region-level lifecycle.
	Image string

	// cov is every block the run covered, as a bitset over table: bit i
	// stands for table.ids[i]. A fresh outcome's table is the
	// explorer's universe; entries decoded from one snapshot share its
	// header's. A nil table is no coverage.
	cov   coverage.Bitset
	table *blockTable
}

// maxImages bounds how many image-version manifests a store retains;
// entries of regions referenced only by older manifests are dropped on
// Save.
const maxImages = 8

const (
	// storeFormat is index.json's "format" and the snapshot header's
	// version, the only format LoadStore reads.
	storeFormat  = 2
	indexName    = "index.json"
	snapshotName = "snapshot"
	journalName  = "journal"
)

// regionOf returns a candidate key's code-region component, and ok
// false for a key without one.
func regionOf(key string) (string, bool) {
	i := strings.IndexByte(key, '@')
	if i < 0 {
		return "", false
	}
	return key[i+1:], true
}

// LoadStore opens the store rooted at path for one target system and
// image version, creating nothing on disk until the first flush.
// Loading a store written for a different system is refused — saving
// would destroy that system's cache — and so is one whose index is in
// any format but this one; entries of other image versions of the same
// system are loaded and kept. Anything but a directory at path is
// refused and left untouched.
func LoadStore(path, system, image string) (*Store, error) {
	st := &Store{
		dir:     filepath.Join(path, system),
		system:  system,
		image:   image,
		entries: make(map[string]Entry),
		index:   storeIndex{System: system},
	}
	fi, err := os.Stat(path)
	if os.IsNotExist(err) {
		return st, nil
	}
	if err != nil {
		return nil, fmt.Errorf("explore: store: %w", err)
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("explore: store %s: not a store directory", path)
	}
	if err := st.loadDir(); err != nil {
		return nil, err
	}
	return st, nil
}

// loadDir reads index.json, then the snapshot, then replays the
// journal over it.
func (s *Store) loadDir() error {
	data, err := os.ReadFile(filepath.Join(s.dir, indexName))
	switch {
	case os.IsNotExist(err):
		// No index (or none survived): entries found on disk are still
		// usable, their keys self-identify.
	case err != nil:
		return fmt.Errorf("explore: store: %w", err)
	default:
		var idx storeIndex
		if jsonErr := json.Unmarshal(data, &idx); jsonErr == nil {
			if idx.System != "" && idx.System != s.system {
				return fmt.Errorf("explore: store %s belongs to system %q, not %q — use a separate store path per target",
					s.dir, idx.System, s.system)
			}
			if idx.Format != storeFormat {
				return fmt.Errorf("explore: store %s is not in store format %d, the only one this build reads — use a new store path",
					s.dir, storeFormat)
			}
			s.index = idx
			s.index.System = s.system
			s.indexed = true
			s.indexData = data
		}
	}
	data, err = os.ReadFile(filepath.Join(s.dir, snapshotName))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("explore: store: %w", err)
	}
	s.loadSnapshot(data)
	data, err = os.ReadFile(filepath.Join(s.dir, journalName))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("explore: store: %w", err)
	}
	s.jsize = int64(s.replay(data, string(data), 0, &decoder{}))
	s.dirty = s.jsize > 0
	return nil
}

// load places an entry read from disk.
func (s *Store) load(key string, e Entry) {
	if _, had := s.entries[key]; !had {
		s.loaded = append(s.loaded, key)
	}
	s.entries[key] = e
}

// reserve sizes an empty store's entry map for n entries, so a fresh
// store's first session does not grow it from empty one outcome at a
// time. A store that loaded entries keeps its map.
func (s *Store) reserve(n int) {
	if s != nil && len(s.entries) == 0 {
		s.entries = make(map[string]Entry, n)
	}
}

// Lookup returns the cached outcome for a candidate key.
func (s *Store) Lookup(key string) (Entry, bool) {
	if s == nil {
		return Entry{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	return e, ok
}

// Adopt migrates an old image's cached entry to a new key (the same
// scenario re-keyed under the current image), recording provenance so
// the compaction stats report it as migrated, not invalidated.
func (s *Store) Adopt(oldKey, newKey string, e Entry) {
	if s == nil {
		return
	}
	s.Put(newKey, e)
	s.mu.Lock()
	if s.adopted == nil {
		s.adopted = make(map[string]bool)
	}
	s.adopted[oldKey] = true
	s.mu.Unlock()
}

// Put records one outcome and stages its journal record — after a
// table frame when its coverage is over another table than the last
// record's — for the next Append.
func (s *Store) Put(key string, e Entry) {
	if s == nil {
		return
	}
	if _, ok := regionOf(key); !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries[key] = e
	s.dirty = true
	if e.table != nil && e.table != s.jtable {
		s.jbuf = appendFrame(s.jbuf, func(b []byte) []byte { return appendTable(append(b, tagTable), e.table) })
		s.jtable = e.table
	}
	s.jbuf = appendRecord(s.jbuf, key, &e, e.cov)
}

// Append is the per-batch persistence point: one write appends the
// journal records of every outcome Put or Adopted since the last Append
// to <system>/journal — no snapshot, no temp file, no rename. Like the
// rename Save does, it survives a killed process, not a power loss. A
// store with no manifest on disk first writes index.json, so a killed
// first session still leaves the fault profile and function
// fingerprints its outcomes were produced under; currentKeys is the
// live candidate-key set that Save takes.
func (s *Store) Append(currentKeys map[string]bool) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.indexed {
		s.manifest(currentKeys)
		if err := s.writeIndex(); err != nil {
			return err
		}
	}
	if len(s.jbuf) == 0 {
		return nil
	}
	if s.journal == nil {
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return fmt.Errorf("explore: store: %w", err)
		}
		f, err := os.OpenFile(filepath.Join(s.dir, journalName), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("explore: store: %w", err)
		}
		// Records appended behind a torn tail would never replay.
		if err := f.Truncate(s.jsize); err != nil {
			f.Close()
			return fmt.Errorf("explore: store: %w", err)
		}
		s.journal = f
	}
	if _, err := s.journal.Write(s.jbuf); err != nil {
		// The records stay staged and the entries dirty: the next flush
		// writes them into the snapshot.
		return fmt.Errorf("explore: store: %w", err)
	}
	s.jbuf = s.jbuf[:0]
	return nil
}

// FlushDirty writes the snapshot when an entry changed, then drops the
// journal, whose records the snapshot now holds.
func (s *Store) FlushDirty() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flush(false)
}

// flush writes the snapshot when an entry changed, then index.json when
// withIndex is set or one is on disk, and only after both removes the
// journal: a kill anywhere before that leaves the journal to replay
// over whatever landed. Records staged for
// the next Append are dropped, since the snapshot holds them. The
// caller holds mu.
func (s *Store) flush(withIndex bool) error {
	if s.journal != nil {
		// Write's error is the one that says whether records landed,
		// and the next Append reopens the file: released on every path.
		s.journal.Close()
		s.journal = nil
	}
	if s.dirty {
		if err := writeFile(filepath.Join(s.dir, snapshotName), s.writeSnapshot); err != nil {
			return err
		}
		s.dirty = false
	}
	s.jbuf, s.jtable = s.jbuf[:0], nil
	if withIndex || s.indexed {
		if err := s.writeIndex(); err != nil {
			return err
		}
	}
	if err := os.Remove(filepath.Join(s.dir, journalName)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("explore: store: %w", err)
	}
	s.jsize = 0
	return nil
}

// snapshotChunk is how many bytes writeSnapshot buffers per write.
const snapshotChunk = 64 << 10

// writeSnapshot streams every entry's encoding to w in snapshotChunk
// writes: a header frame (magic, format, system, and the table the
// records' coverage is over — the sorted union of the entries'
// tables), then one record frame per entry, sorted by key. The caller
// holds mu.
func (s *Store) writeSnapshot(w io.Writer) error {
	keys := make([]string, 0, len(s.entries))
	tables := make(map[*blockTable][]int) // table -> union position of each ID, nil if the union's own
	var ids []string
	for key, e := range s.entries {
		keys = append(keys, key)
		if _, seen := tables[e.table]; e.table != nil && !seen {
			tables[e.table] = nil
			ids = append(ids, e.table.ids...)
		}
	}
	sort.Strings(keys)
	union := newTable(ids)
	for t := range tables {
		if !slices.Equal(t.ids, union.ids) {
			pos := make([]int, len(t.ids))
			for i, id := range t.ids {
				pos[i], _ = slices.BinarySearch(union.ids, id)
			}
			tables[t] = pos
		}
	}
	bw := bufio.NewWriterSize(w, snapshotChunk)
	// frame holds one frame at a time; bw's errors stick until Flush.
	frame := appendFrame(nil, func(b []byte) []byte {
		b = binary.AppendUvarint(append(b, snapshotMagic...), storeFormat)
		return appendTable(binrec.AppendString(b, s.system), union)
	})
	bw.Write(frame)
	scratch := coverage.NewBitset(len(union.ids))
	for _, key := range keys {
		e := s.entries[key]
		cov := e.cov
		if pos := tables[e.table]; pos != nil {
			scratch.Reset()
			e.cov.Range(func(i int) { scratch.Set(pos[i]) })
			cov = scratch
		}
		frame = appendRecord(frame[:0], key, &e, cov)
		bw.Write(frame)
	}
	return bw.Flush()
}

// writeIndex writes index.json, unless its bytes would
// not change.
func (s *Store) writeIndex() error {
	s.index.Format = storeFormat
	data, err := json.Marshal(s.index)
	if err != nil {
		return fmt.Errorf("explore: store: %w", err)
	}
	data = append(data, '\n')
	if !bytes.Equal(data, s.indexData) {
		if err := writeFile(filepath.Join(s.dir, indexName), func(w io.Writer) error {
			_, err := w.Write(data)
			return err
		}); err != nil {
			return err
		}
		s.indexData = data
	}
	s.indexed = true
	return nil
}

// writeFile replaces path with what write writes crash-safely: a
// unique temp file in the same directory, then a rename over path. A
// kill between the two leaves only a .tmp file, which the loader never
// reads.
func writeFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("explore: store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("explore: store: %w", err)
	}
	werr := write(tmp)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("explore: store: writing %s: %v/%v", path, werr, cerr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("explore: store: %w", err)
	}
	return nil
}

// Save is the end-of-session persistence point and the store's one
// compaction: it updates the current image's manifest to the regions
// currentKeys references, prunes entries no retained image version can
// ever match again, writes the snapshot and the index, and then removes
// the journal. Neither file is rewritten when its bytes would not
// change, so a converged resume writes nothing.
func (s *Store) Save(currentKeys map[string]bool) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.save(currentKeys)
}

// manifest moves the current image's manifest, rebuilt over the
// regions currentKeys references, to the front of the index, retains at
// most maxImages, and returns those regions. The caller holds mu.
func (s *Store) manifest(currentKeys map[string]bool) map[string]bool {
	live := make(map[string]bool)
	for key := range currentKeys {
		if region, ok := regionOf(key); ok {
			live[region] = true
		}
	}
	m := imageManifest{Image: s.image, Funcs: s.funcs, Profiles: s.profiles, Summaries: s.summaries}
	if m.Summaries == nil {
		// Keep summaries a previous session saved for this image: Save
		// rebuilds the manifest, and not every caller recomputes them.
		for _, old := range s.index.Images {
			if old.Image == s.image {
				m.Summaries = old.Summaries
				break
			}
		}
	}
	for region := range live {
		m.Shards = append(m.Shards, region)
	}
	sort.Strings(m.Shards)
	images := []imageManifest{m}
	for _, old := range s.index.Images {
		if old.Image != s.image && len(images) < maxImages {
			images = append(images, old)
		}
	}
	s.index.Images = images
	return live
}

// save is Save with mu held.
func (s *Store) save(currentKeys map[string]bool) error {
	live := s.manifest(currentKeys)
	// Regions shared with an older retained manifest may hold entries
	// for candidate sets we cannot see; only regions exclusive to the
	// current image are pruned entry-by-entry against the live set.
	shared, referenced := make(map[string]bool), make(map[string]bool)
	retained := make(map[string]bool, len(s.index.Images))
	for i, m := range s.index.Images {
		retained[m.Image] = true
		for _, region := range m.Shards {
			referenced[region] = true
			shared[region] = shared[region] || i > 0
		}
	}
	for key, e := range s.entries {
		// Stamp every entry the current image's candidate set
		// references: the stamp names the newest image that can still
		// replay the entry, so retention can prune per entry, not just
		// per region.
		if currentKeys[key] {
			if e.Image != s.image {
				e.Image = s.image
				s.entries[key] = e
				s.dirty = true
			}
			continue
		}
		// Drop an entry whose region no retained manifest references, a
		// dead entry of a region exclusive to the current image, and an
		// entry stamped with an image no retained manifest names: it can
		// never replay again, even though its region survives for other
		// images. Unstamped entries (replayed from a journal no Save
		// compacted) keep the region-level lifecycle.
		region, _ := regionOf(key)
		if !referenced[region] || (live[region] && !shared[region]) || (e.Image != "" && !retained[e.Image]) {
			delete(s.entries, key)
			s.dirty = true
		}
	}

	// Compaction stats: of the entries that were on disk when the store
	// was opened, how many the current image's manifest can still
	// replay — in place, or adopted forward across an image edit by the
	// stale-outcome rule — vs how many it can no longer reach (their
	// code region changed, or they were pruned).
	s.migrated, s.invalidated = 0, 0
	for _, key := range s.loaded {
		region, _ := regionOf(key)
		if _, ok := s.entries[key]; ok && live[region] || s.adopted[key] {
			s.migrated++
		} else {
			s.invalidated++
		}
	}
	return s.flush(true)
}

// SetFuncHashes records the current image's per-function fingerprints;
// Save writes them into the image's manifest. The next session diffs
// its own fingerprints against them to run impact analysis without the
// old binary.
func (s *Store) SetFuncHashes(funcs map[string]string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.funcs = funcs
}

// SetProfileHashes records the current profile set's per-function
// fingerprints; Save writes them into the image's manifest next to the
// code fingerprints.
func (s *Store) SetProfileHashes(profiles map[string]string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.profiles = profiles
}

// SetSummaries records the current image's interprocedural summary
// set; Save writes it into the image's manifest next to the funcs and
// profiles fingerprints.
func (s *Store) SetSummaries(sums callgraph.Summaries) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.summaries = sums
}

// reusableSummaries returns the most recently saved summary set and the
// image it was computed for — the reuse base for incremental
// re-analysis — when it was recorded under the profile fingerprints
// given: a profile edit changes the site universe the summaries
// describe, so only an identical fault model reuses them. Like
// PriorProfileHashes it does not skip the current image: an unchanged
// build reuses every summary. nil when nothing is reusable.
func (s *Store) reusableSummaries(profiles map[string]string) (callgraph.Summaries, string) {
	if s == nil {
		return nil, ""
	}
	prior, ok := s.PriorProfileHashes()
	if !ok || !maps.Equal(prior, profiles) {
		return nil, ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.index.Images {
		if len(m.Summaries) > 0 {
			return m.Summaries, m.Image
		}
	}
	return nil, ""
}

// SaveSummaries persists a summary set for the current image by
// rewriting only index.json — the lint path's persistence point. It
// must not go through Save: Save rebuilds the current image's manifest
// from a live candidate-key set, and lint has none, so a full Save
// would disconnect the image's regions and let retention prune cached
// outcomes. The image's existing manifest (regions, funcs, profiles) is
// updated in place when present; otherwise a minimal manifest is
// prepended under the usual retention bound. An index whose bytes would
// not change is not rewritten.
func (s *Store) SaveSummaries(sums callgraph.Summaries, funcs, profiles map[string]string) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.summaries = sums
	found := false
	for i := range s.index.Images {
		if s.index.Images[i].Image == s.image {
			s.index.Images[i].Summaries = sums
			if len(s.index.Images[i].Funcs) == 0 {
				s.index.Images[i].Funcs = funcs
			}
			if len(s.index.Images[i].Profiles) == 0 {
				s.index.Images[i].Profiles = profiles
			}
			found = true
			break
		}
	}
	if !found {
		images := []imageManifest{{Image: s.image, Funcs: funcs, Profiles: profiles, Summaries: sums}}
		for _, m := range s.index.Images {
			if len(images) < maxImages {
				images = append(images, m)
			}
		}
		s.index.Images = images
	}
	return s.writeIndex()
}

// PriorProfileHashes returns the profile fingerprints of the most
// recently saved manifest — the diff base for detecting a profile
// edit. Unlike PreviousImage it does not skip the current image: a
// pure profile edit leaves the image hash untouched, so the manifest
// to diff against is usually the current image's own, written by the
// last session. ok is false when no retained manifest recorded
// profile fingerprints.
func (s *Store) PriorProfileHashes() (map[string]string, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.index.Images {
		if len(m.Profiles) > 0 {
			return m.Profiles, true
		}
	}
	return nil, false
}

// PreviousImage returns the most recently saved retained image other
// than the current one, with its function fingerprints — the diff base
// for impact analysis. ok is false when no such manifest exists or it
// predates fingerprint recording.
func (s *Store) PreviousImage() (image string, funcs map[string]string, ok bool) {
	if s == nil {
		return "", nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.index.Images {
		if m.Image != s.image && len(m.Funcs) > 0 {
			return m.Image, m.Funcs, true
		}
	}
	return "", nil, false
}

// forget drops the entry under key, so the next session meets a miss
// where this one left an outcome it did not verify.
func (s *Store) forget(key string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[key]; ok {
		delete(s.entries, key)
		s.dirty = true
	}
}

// Shards returns the code regions holding entries, sorted (tests, CLI).
func (s *Store) Shards() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.regions()
}

// regions returns the code regions holding entries, sorted. The caller
// holds mu.
func (s *Store) regions() []string {
	set := make(map[string]bool)
	for key := range s.entries {
		region, _ := regionOf(key)
		set[region] = true
	}
	out := make([]string, 0, len(set))
	for region := range set {
		out = append(out, region)
	}
	sort.Strings(out)
	return out
}

// StoreStats is a store's compaction summary — the `lfi explore -v`
// per-store report.
type StoreStats struct {
	System  string
	Shards  int // code regions holding entries
	Images  int // retained image-version manifests
	Entries int // cached outcomes across all regions
	// Migrated counts on-disk entries the current image's manifest
	// still references: cache carried forward across image versions.
	Migrated int
	// Invalidated counts on-disk entries the current image can no
	// longer reach — their code region changed (the region may survive
	// for older retained images) or they were pruned.
	Invalidated int
}

// String renders the one-line -v report.
func (st StoreStats) String() string {
	return fmt.Sprintf("store %s: %d shards, %d image versions, %d entries (%d migrated, %d invalidated)",
		st.System, st.Shards, st.Images, st.Entries, st.Migrated, st.Invalidated)
}

// Stats reports the store's compaction state. Migrated/invalidated
// counts are computed by Save, so they are zero before the first save.
func (s *Store) Stats() StoreStats {
	if s == nil {
		return StoreStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		System:      s.system,
		Shards:      len(s.regions()),
		Images:      len(s.index.Images),
		Entries:     len(s.entries),
		Migrated:    s.migrated,
		Invalidated: s.invalidated,
	}
}

// Images returns the retained image versions, most recent first.
func (s *Store) Images() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.index.Images))
	for _, m := range s.index.Images {
		out = append(out, m.Image)
	}
	return out
}
