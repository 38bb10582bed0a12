package explore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"lfi/internal/callgraph"
)

// Store is the persistent campaign store: a shard directory, not one
// JSON document. Outcomes are keyed by scenario content hash plus
// targeted-code-region hash ("scenarioHash@codeHash"), and every code
// region gets its own shard file:
//
//	<dir>/<system>/index.json            image manifests (newest first)
//	<dir>/<system>/<codeHash>.json       one shard per targeted region
//	<dir>/<system>/journal               outcomes recorded since the last Save
//
// The layout buys two properties the single document could not offer:
//
//   - Stores from multiple image versions coexist. Each image version
//     saves a manifest naming the shards its candidate set references;
//     regions the versions share point at the same shard, so entries
//     migrate forward for free when only untargeted code changed, and a
//     shard is deleted only when no retained manifest references it.
//   - A code change to one application function moves that function's
//     region hash, so exactly one shard is invalidated; everything else
//     replays untouched.
//
// Persistence has two speeds. Append, once per batch, writes the
// batch's outcomes to the journal as framed records in one O_APPEND
// write. Save, once per session, is the compaction point: it rewrites
// the dirty shards and index.json, each through a temp file and an
// atomic rename, and only then removes the journal. LoadStore replays
// the journal over the shards and ignores stray .tmp files, unparsable
// shards and a torn journal tail, so a killed campaign loses at most
// the batch it was writing.
type Store struct {
	dir    string // <root>/<system>
	system string
	image  string

	// mu guards the store's state and serializes its disk writers
	// (Append, FlushDirty, Save, SaveSummaries), which hold it across
	// their IO: no Put or append can land between a snapshot and the
	// journal removal that follows it.
	mu     sync.Mutex
	shards map[string]*shard // codeHash -> entries
	index  storeIndex
	// journal is the journal file Append opened, until the next flush
	// closes it.
	journal *os.File
	// indexed reports a manifest on disk: index.json loaded, or written
	// since. Append saves first while it is false.
	indexed bool
	// jbuf holds the journal records of every Put since the last Append
	// or flush; nil until the first Put.
	jbuf []byte

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

	// migrated/invalidated are computed by Save from the loaded sets:
	// how many on-disk entries the current image's manifest still
	// references vs how many it can no longer reach (stale code region,
	// or pruned from an exclusive shard).
	migrated    int
	invalidated int
}

type shard struct {
	entries map[string]Entry // scenarioHash -> outcome
	loaded  map[string]bool  // entries read from disk (vs Put this run)
	dirty   bool
}

// storeIndex is the on-disk index.json shape.
type storeIndex struct {
	System string          `json:"system"`
	Images []imageManifest `json:"images"` // most recent save first
	// Cost is the system's gain-per-run EWMA: the scheduling signal a
	// resumed session starts from. An index written when this also held
	// per-backend runs/sec ("runs_per_sec") loads with that field
	// ignored, and Save does not write it back.
	Cost *gainEWMA `json:"cost,omitempty"`
}

// imageManifest names the shards one image version's candidate set
// references, plus that image's per-function code fingerprints — the
// impact metadata the resume path diffs against. Manifests written
// before fingerprints existed load fine with Funcs nil; the resume path
// then falls back to whole-shard invalidation.
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

// shardFile is the on-disk shape of one shard. Its region is its file
// name, never a field inside it: a base name cannot carry a path
// separator, so no shard can point Save outside the store.
type shardFile struct {
	System  string           `json:"system"`
	Entries map[string]Entry `json:"entries"`
}

// Entry is one cached scenario outcome.
type Entry struct {
	Name       string   `json:"name"`
	Failed     bool     `json:"failed,omitempty"`
	Signature  string   `json:"signature,omitempty"`
	Blocks     []string `json:"blocks,omitempty"` // all blocks the run covered
	Injections int      `json:"injections,omitempty"`
	// Image is the newest image version whose candidate set referenced
	// this entry (stamped by Save). An entry whose image falls out of
	// manifest retention is pruned from its shard file even when the
	// shard itself survives for other images; "" (entries written
	// before stamping existed) keeps the shard-level lifecycle.
	Image string `json:"image,omitempty"`
}

// maxImages bounds how many image-version manifests a store retains;
// shards referenced only by older manifests are garbage-collected on
// Save.
const maxImages = 8

// The journal is a sequence of records, each a frame header — the body
// length and the body's CRC-32 (IEEE), both uint32 little-endian —
// followed by the body, a JSON journalRecord. A kill mid-write leaves a
// torn last record: a short header, a short or corrupt body.
const (
	journalName   = "journal"
	journalHeader = 8
)

// maxShardName bounds a shard file name so that the temp file Save
// renames over it (the name plus ".tmp" and CreateTemp's random
// suffix) still fits a 255-byte file name.
const maxShardName = 255 - len(".tmp4294967295")

// journalRecord is one journaled outcome: the full candidate key, so
// replay restores the entry exactly where Put placed it.
type journalRecord struct {
	Key   string `json:"key"`
	Entry Entry  `json:"entry"`
}

// splitKey breaks a candidate key into its scenario-hash and
// code-region components.
func splitKey(key string) (scen, region string, ok bool) {
	i := strings.IndexByte(key, '@')
	if i < 0 {
		return "", "", false
	}
	return key[:i], key[i+1:], true
}

// shardName reports whether region can name a shard file: <region>.json
// is one base name in the store directory, and the loader reads it back
// as region (not the index, not a temp file). Journal keys come from
// disk, so replay drops a record whose region fails this — no forged
// record can point Save outside the store.
func shardName(region string) bool {
	base := region + ".json"
	return filepath.Base(base) == base && base != "index.json" && !strings.Contains(base, ".tmp") &&
		!strings.ContainsRune(base, 0) && len(base) <= maxShardName
}

// LoadStore opens the sharded store rooted at path for one target
// system and image version, creating nothing on disk until the first
// flush. Loading a store written for a different system is refused —
// saving would destroy that system's cache; shards of other image
// versions of the same system are loaded and kept. Anything but a
// directory at path is refused and left untouched.
func LoadStore(path, system, image string) (*Store, error) {
	st := &Store{
		dir:    filepath.Join(path, system),
		system: system,
		image:  image,
		shards: make(map[string]*shard),
		index:  storeIndex{System: system},
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

// loadDir reads index.json and every parsable shard, then replays the
// journal over them. Partial writes — stray .tmp files from a killed
// campaign, or a shard that does not parse — are skipped, never loaded:
// the worst case is re-executing the scenarios that shard cached.
func (s *Store) loadDir() error {
	data, err := os.ReadFile(filepath.Join(s.dir, "index.json"))
	switch {
	case os.IsNotExist(err):
		// No index (or none survived): shards found on disk are still
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
			s.index = idx
			s.index.System = s.system
			s.indexed = true
		}
	}
	names, err := filepath.Glob(filepath.Join(s.dir, "*.json"))
	if err != nil {
		return fmt.Errorf("explore: store: %w", err)
	}
	for _, name := range names {
		base := filepath.Base(name)
		if base == "index.json" || strings.Contains(base, ".tmp") {
			continue
		}
		data, err := os.ReadFile(name)
		if err != nil {
			continue
		}
		var sf shardFile
		if err := json.Unmarshal(data, &sf); err != nil || sf.Entries == nil {
			continue // partial/corrupt write: not loaded
		}
		if sf.System != "" && sf.System != s.system {
			continue
		}
		region := strings.TrimSuffix(base, ".json")
		loaded := make(map[string]bool, len(sf.Entries))
		for scen := range sf.Entries {
			loaded[scen] = true
		}
		s.shards[region] = &shard{entries: sf.Entries, loaded: loaded}
	}
	data, err = os.ReadFile(filepath.Join(s.dir, journalName))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("explore: store: %w", err)
	}
	s.replay(data)
	return nil
}

// replay applies journal records over the loaded shards, in order, and
// marks every shard it touches dirty so the next Save compacts it. The
// first record with a short frame, a bad checksum or a body that does
// not parse ends the replay: it is the torn tail of a killed batch, and
// nothing after it was acknowledged. A replayed entry counts as loaded
// from disk, exactly as it would had a snapshot held it.
func (s *Store) replay(data []byte) {
	for len(data) >= journalHeader {
		n := binary.LittleEndian.Uint32(data)
		if uint64(n) > uint64(len(data)-journalHeader) {
			return
		}
		body := data[journalHeader : journalHeader+int(n)]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[4:]) {
			return
		}
		var rec journalRecord
		if json.Unmarshal(body, &rec) != nil {
			return
		}
		data = data[journalHeader+int(n):]
		scen, region, ok := splitKey(rec.Key)
		if !ok || !shardName(region) {
			continue
		}
		sh, ok := s.shards[region]
		if !ok {
			sh = &shard{entries: make(map[string]Entry), loaded: make(map[string]bool)}
			s.shards[region] = sh
		}
		sh.entries[scen] = rec.Entry
		sh.loaded[scen] = true
		sh.dirty = true
	}
}

// Lookup returns the cached outcome for a candidate key.
func (s *Store) Lookup(key string) (Entry, bool) {
	if s == nil {
		return Entry{}, false
	}
	scen, region, ok := splitKey(key)
	if !ok {
		return Entry{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sh, ok := s.shards[region]
	if !ok {
		return Entry{}, false
	}
	e, ok := sh.entries[scen]
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

// Put records one outcome, marks its shard dirty, and stages its
// journal record for the next Append.
func (s *Store) Put(key string, e Entry) {
	if s == nil {
		return
	}
	scen, region, ok := splitKey(key)
	if !ok {
		return
	}
	// An Entry holds only strings, bools and ints: it always marshals.
	body, _ := json.Marshal(journalRecord{Key: key, Entry: e})
	s.mu.Lock()
	defer s.mu.Unlock()
	sh, ok := s.shards[region]
	if !ok {
		sh = &shard{entries: make(map[string]Entry)}
		s.shards[region] = sh
	}
	sh.entries[scen] = e
	sh.dirty = true
	s.jbuf = binary.LittleEndian.AppendUint32(s.jbuf, uint32(len(body)))
	s.jbuf = binary.LittleEndian.AppendUint32(s.jbuf, crc32.ChecksumIEEE(body))
	s.jbuf = append(s.jbuf, body...)
}

// Append is the per-batch persistence point: one write appends the
// journal records of every outcome Put or Adopted since the last Append
// to <system>/journal — no snapshot, no temp file, no rename. Like the
// rename Save does, it survives a killed process, not a power loss. A
// store with no manifest on disk is saved instead, so a killed first
// session still leaves the fault profile and function fingerprints its
// outcomes were produced under; currentKeys is the live candidate-key
// set that Save takes.
func (s *Store) Append(currentKeys map[string]bool) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.indexed {
		return s.save(currentKeys)
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
		s.journal = f
	}
	if _, err := s.journal.Write(s.jbuf); err != nil {
		// The records stay staged and their shards dirty: the next
		// flush writes them into snapshots.
		return fmt.Errorf("explore: store: %w", err)
	}
	s.jbuf = s.jbuf[:0]
	return nil
}

// FlushDirty writes every dirty shard's snapshot, then drops the
// journal, whose records the snapshots now hold.
func (s *Store) FlushDirty() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flush(nil)
}

// flush writes every dirty shard's snapshot, then index.json when idx
// is non-nil, and only after both removes the journal: a kill anywhere
// before that leaves the journal to replay over whatever snapshots
// landed. Records staged for the next Append are dropped, since the
// snapshots hold them. The caller holds mu.
func (s *Store) flush(idx *storeIndex) error {
	if s.journal != nil {
		// Write's error is the one that says whether records landed,
		// and the next Append reopens the file: released on every path.
		s.journal.Close()
		s.journal = nil
	}
	regions := make([]string, 0, len(s.shards))
	for region, sh := range s.shards {
		if sh.dirty {
			regions = append(regions, region)
		}
	}
	sort.Strings(regions)
	for _, region := range regions {
		sh := s.shards[region]
		if err := s.writeJSON(s.shardPath(region), shardFile{System: s.system, Entries: sh.entries}); err != nil {
			return err
		}
		sh.dirty = false
	}
	s.jbuf = s.jbuf[:0]
	if idx != nil {
		if err := s.writeJSON(filepath.Join(s.dir, "index.json"), idx); err != nil {
			return err
		}
		s.indexed = true
	}
	if err := os.Remove(filepath.Join(s.dir, journalName)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("explore: store: %w", err)
	}
	return nil
}

// Save is the end-of-session persistence point and the store's one
// compaction: it updates the current image's manifest to the shards
// currentKeys references, prunes entries and shards no retained image
// version can ever match again, writes every dirty shard and the index,
// and then removes the journal.
func (s *Store) Save(currentKeys map[string]bool) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.save(currentKeys)
}

// save is Save with mu held.
func (s *Store) save(currentKeys map[string]bool) error {
	// The current image's shard set and per-shard live key sets.
	liveByRegion := make(map[string]map[string]bool)
	for key := range currentKeys {
		scen, region, ok := splitKey(key)
		if !ok {
			continue
		}
		set := liveByRegion[region]
		if set == nil {
			set = make(map[string]bool)
			liveByRegion[region] = set
		}
		set[scen] = true
	}
	manifest := imageManifest{Image: s.image, Funcs: s.funcs, Profiles: s.profiles, Summaries: s.summaries}
	if manifest.Summaries == nil {
		// Keep summaries a previous session saved for this image: Save
		// rebuilds the manifest, and not every caller recomputes them.
		for _, m := range s.index.Images {
			if m.Image == s.image {
				manifest.Summaries = m.Summaries
				break
			}
		}
	}
	for region := range liveByRegion {
		manifest.Shards = append(manifest.Shards, region)
	}
	sort.Strings(manifest.Shards)

	// Move/insert the manifest at the front, retain at most maxImages.
	images := []imageManifest{manifest}
	for _, m := range s.index.Images {
		if m.Image != s.image && len(images) < maxImages {
			images = append(images, m)
		}
	}
	s.index.Images = images

	// Stamp every entry the current image's candidate set references.
	// The stamp is the entry-level analogue of the manifest: it names
	// the newest image that can still replay the entry, so retention
	// can prune per entry, not just per shard file.
	for region, live := range liveByRegion {
		sh, ok := s.shards[region]
		if !ok {
			continue
		}
		for scen, e := range sh.entries {
			if live[scen] && e.Image != s.image {
				e.Image = s.image
				sh.entries[scen] = e
				sh.dirty = true
			}
		}
	}

	// Shards shared with an older retained manifest may hold entries
	// for candidate sets we cannot see; only shards exclusive to the
	// current image are pruned entry-by-entry against the live set.
	shared := make(map[string]bool)
	for _, m := range s.index.Images[1:] {
		for _, region := range m.Shards {
			shared[region] = true
		}
	}
	for region, live := range liveByRegion {
		sh, ok := s.shards[region]
		if !ok || shared[region] {
			continue
		}
		for scen := range sh.entries {
			if !live[scen] {
				delete(sh.entries, scen)
				sh.dirty = true
			}
		}
	}

	// Retention pruning for shared shards: an entry stamped with an
	// image no retained manifest names can never replay again — drop it
	// even though its shard file survives for other images, so stale
	// shard files shrink instead of accreting dead entries. Unstamped
	// entries (written before stamping existed) keep the conservative
	// shard-level lifecycle.
	retained := make(map[string]bool, len(s.index.Images))
	for _, m := range s.index.Images {
		retained[m.Image] = true
	}
	for _, sh := range s.shards {
		for scen, e := range sh.entries {
			if e.Image != "" && !retained[e.Image] {
				delete(sh.entries, scen)
				sh.dirty = true
			}
		}
	}

	// Compaction stats: of the entries that were on disk when the store
	// was opened, how many the current image's manifest can still
	// replay — in place, or adopted forward across an image edit by the
	// stale-outcome rule — vs how many it can no longer reach (their
	// code region changed, or they were pruned).
	current := make(map[string]bool, len(manifest.Shards))
	for _, region := range manifest.Shards {
		current[region] = true
	}
	s.migrated, s.invalidated = 0, 0
	for region, sh := range s.shards {
		for scen := range sh.loaded {
			if _, live := sh.entries[scen]; live && current[region] {
				s.migrated++
			} else if s.adopted[scen+"@"+region] {
				s.migrated++
			} else {
				s.invalidated++
			}
		}
	}

	// Drop shards no retained manifest references.
	referenced := make(map[string]bool)
	for _, m := range s.index.Images {
		for _, region := range m.Shards {
			referenced[region] = true
		}
	}
	var stale []string
	for region := range s.shards {
		if !referenced[region] {
			stale = append(stale, region)
			delete(s.shards, region)
		}
	}
	for _, region := range stale {
		if err := os.Remove(s.shardPath(region)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("explore: store: %w", err)
		}
	}
	return s.flush(&s.index)
}

func (s *Store) shardPath(region string) string {
	return filepath.Join(s.dir, region+".json")
}

// writeJSON writes v crash-safely: marshal, write a unique temp file in
// the target directory, rename over the destination. A kill between
// the two steps leaves only an ignorable .tmp file.
func (s *Store) writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("explore: store: %w", err)
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("explore: store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("explore: store: %w", err)
	}
	_, werr := tmp.Write(append(data, '\n'))
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
// would disconnect the image's shards and let retention prune cached
// outcomes. The image's existing manifest (shards, funcs, profiles) is
// updated in place when present; otherwise a minimal manifest is
// prepended under the usual retention bound.
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
	if err := s.writeJSON(filepath.Join(s.dir, "index.json"), s.index); err != nil {
		return err
	}
	s.indexed = true
	return nil
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

// gain returns the persisted gain EWMA (zero when no session has saved
// one).
func (s *Store) gain() gainEWMA {
	if s == nil {
		return gainEWMA{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.index.Cost == nil {
		return gainEWMA{}
	}
	return *s.index.Cost
}

// setGain records the gain EWMA to persist with the next Save.
func (s *Store) setGain(g gainEWMA) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.index.Cost = &g
}

// Shards returns the in-memory shard regions, sorted (tests, CLI).
func (s *Store) Shards() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.shards))
	for region := range s.shards {
		out = append(out, region)
	}
	sort.Strings(out)
	return out
}

// StoreStats is a store's compaction summary — the `lfi explore -v`
// per-store report.
type StoreStats struct {
	System  string
	Shards  int // shard files retained (one per targeted code region)
	Images  int // retained image-version manifests
	Entries int // cached outcomes across all shards
	// Migrated counts on-disk entries the current image's manifest
	// still references: cache carried forward across image versions.
	Migrated int
	// Invalidated counts on-disk entries the current image can no
	// longer reach — their code region changed (the shard may survive
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
	st := StoreStats{
		System:      s.system,
		Shards:      len(s.shards),
		Images:      len(s.index.Images),
		Migrated:    s.migrated,
		Invalidated: s.invalidated,
	}
	for _, sh := range s.shards {
		st.Entries += len(sh.entries)
	}
	return st
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
