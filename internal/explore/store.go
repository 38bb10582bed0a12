package explore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"lfi/internal/callgraph"
	"lfi/internal/exec"
)

// Store is the persistent campaign store: a shard directory, not one
// JSON document. Outcomes are keyed by scenario content hash plus
// targeted-code-region hash ("scenarioHash@codeHash"), and every code
// region gets its own shard file:
//
//	<dir>/<system>/index.json            image manifests (newest first)
//	<dir>/<system>/<codeHash>.json       one shard per targeted region
//
// The layout buys three properties the single document could not offer:
//
//   - Stores from multiple image versions coexist. Each image version
//     saves a manifest naming the shards its candidate set references;
//     regions the versions share point at the same shard, so entries
//     migrate forward for free when only untargeted code changed, and a
//     shard is deleted only when no retained manifest references it.
//   - A code change to one application function moves that function's
//     region hash, so exactly one shard is invalidated; everything else
//     replays untouched.
//   - Concurrent campaign workers flush independently: FlushShard
//     rewrites one region's file (write-temp-then-rename), never the
//     whole store.
//
// All writes go through a temp file and an atomic rename, so a killed
// campaign can never leave a half-written shard or index behind; stray
// .tmp files and unparsable shards are ignored on load.
type Store struct {
	dir    string // <root>/<system>
	system string
	image  string

	mu     sync.Mutex
	shards map[string]*shard // codeHash -> entries
	index  storeIndex

	// funcs is the current image's per-function fingerprint map,
	// recorded into its manifest at Save — the impact metadata a later
	// session diffs against without needing the old binary.
	funcs map[string]string
	// profiles is the current profile set's per-function fingerprint
	// map (impact.ProfileHashes), recorded alongside funcs.
	profiles map[string]string
	// summaries is the current image's interprocedural analysis record
	// (callgraph.Summaries), persisted in the manifest next to funcs so
	// a later lint or -impact session recomputes only the summaries an
	// edit can reach.
	summaries callgraph.Summaries
	// adopted records old-image keys whose entries the impact plan
	// migrated forward this run (Adopt), so compaction stats count them
	// as migrated rather than invalidated.
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
	// flushMu serializes writers of this one shard file: without it,
	// two same-region flushes could race snapshot/rename so that the
	// older snapshot lands last while dirty is already false — durably
	// losing the newer entries. Disjoint shards still flush in
	// parallel.
	flushMu sync.Mutex
}

// storeIndex is the on-disk index.json shape.
type storeIndex struct {
	System string          `json:"system"`
	Images []imageManifest `json:"images"` // most recent save first
	// Cost is the system's persisted execution cost model (EWMA of
	// runs/sec per backend and coverage gain per run): the scheduling
	// signal a resumed session starts from.
	Cost *exec.CostModel `json:"cost,omitempty"`
}

// imageManifest names the shards one image version's candidate set
// references, plus that image's per-function code fingerprints — the
// impact metadata the `-impact` resume path diffs against. Manifests
// written before fingerprints existed load fine with Funcs nil; impact
// analysis then reports "no previous image metadata" and the resume
// path stays whole-shard.
type imageManifest struct {
	Image  string            `json:"image"`
	Shards []string          `json:"shards"`
	Funcs  map[string]string `json:"funcs,omitempty"`
	// Profiles fingerprints the library fault profiles the candidate
	// set was generated from (impact.ProfileHashes). A profile edit
	// moves no code byte — image and region hashes all stay put — so
	// this is the only record that lets a later `-impact` session spot
	// one and re-validate the affected callees' cached outcomes.
	Profiles map[string]string `json:"profiles,omitempty"`
	// Summaries is the image's per-function interprocedural analysis
	// record, content-addressed by the same fingerprints as Funcs.
	// `lfi lint` and the explorer's static prior reuse every summary
	// whose function body is unchanged.
	Summaries callgraph.Summaries `json:"summaries,omitempty"`
}

// shardFile is the on-disk shape of one shard.
type shardFile struct {
	System  string           `json:"system"`
	Region  string           `json:"region"`
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

// splitKey breaks a candidate key into its scenario-hash and
// code-region components.
func splitKey(key string) (scen, region string, ok bool) {
	i := strings.IndexByte(key, '@')
	if i < 0 {
		return "", "", false
	}
	return key[:i], key[i+1:], true
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

// loadDir reads index.json and every parsable shard. Partial writes —
// stray .tmp files from a killed campaign, or a shard that does not
// parse — are skipped, never loaded: the worst case is re-executing the
// scenarios that shard cached.
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
		region := sf.Region
		if region == "" {
			region = strings.TrimSuffix(base, ".json")
		}
		loaded := make(map[string]bool, len(sf.Entries))
		for scen := range sf.Entries {
			loaded[scen] = true
		}
		s.shards[region] = &shard{entries: sf.Entries, loaded: loaded}
	}
	return nil
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

// Put records one outcome and marks its shard dirty.
func (s *Store) Put(key string, e Entry) {
	if s == nil {
		return
	}
	scen, region, ok := splitKey(key)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sh, ok := s.shards[region]
	if !ok {
		sh = &shard{entries: make(map[string]Entry)}
		s.shards[region] = sh
	}
	sh.entries[scen] = e
	sh.dirty = true
}

// FlushShard persists one region's shard if it is dirty. The entry map
// is snapshotted under the store lock and written outside it while the
// shard's own flush lock is held, so concurrent workers flushing
// disjoint shards do not serialize on each other's file IO, same-shard
// flushes are linearized (a newer snapshot can never be overwritten by
// an older one), and no flush ever rewrites more than its own file.
func (s *Store) FlushShard(region string) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	sh, ok := s.shards[region]
	s.mu.Unlock()
	if !ok {
		return nil
	}
	sh.flushMu.Lock()
	defer sh.flushMu.Unlock()
	s.mu.Lock()
	if !sh.dirty {
		s.mu.Unlock()
		return nil
	}
	sf := shardFile{System: s.system, Region: region, Entries: make(map[string]Entry, len(sh.entries))}
	for k, v := range sh.entries {
		sf.Entries[k] = v
	}
	sh.dirty = false
	s.mu.Unlock()
	if err := s.writeJSON(s.shardPath(region), sf); err != nil {
		s.mu.Lock()
		sh.dirty = true // retry on the next flush
		s.mu.Unlock()
		return err
	}
	return nil
}

// FlushDirty persists every dirty shard.
func (s *Store) FlushDirty() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	regions := make([]string, 0, len(s.shards))
	for region, sh := range s.shards {
		if sh.dirty {
			regions = append(regions, region)
		}
	}
	s.mu.Unlock()
	sort.Strings(regions)
	for _, region := range regions {
		if err := s.FlushShard(region); err != nil {
			return err
		}
	}
	return nil
}

// Save is the end-of-run (and end-of-batch) persistence point: it
// updates the current image's manifest to the shards currentKeys
// references, prunes entries and shards no retained image version can
// ever match again, and flushes everything dirty plus the index.
func (s *Store) Save(currentKeys map[string]bool) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
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
	// impact plan — vs how many it can no longer reach (their code
	// region changed, or they were pruned).
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
	idx := s.index
	s.mu.Unlock()

	for _, region := range stale {
		if err := os.Remove(s.shardPath(region)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("explore: store: %w", err)
		}
	}
	if err := s.FlushDirty(); err != nil {
		return err
	}
	return s.writeJSON(filepath.Join(s.dir, "index.json"), idx)
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

// PriorSummaries returns the most recently saved summary set and the
// image it was computed for — the reuse base for incremental
// re-analysis. Like PriorProfileHashes it does not skip the current
// image: an unchanged build should reuse every summary. ok is false
// when no retained manifest recorded summaries.
func (s *Store) PriorSummaries() (sums callgraph.Summaries, image string, ok bool) {
	if s == nil {
		return nil, "", false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.index.Images {
		if len(m.Summaries) > 0 {
			return m.Summaries, m.Image, true
		}
	}
	return nil, "", false
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
	idx := s.index
	s.mu.Unlock()
	return s.writeJSON(filepath.Join(s.dir, "index.json"), idx)
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

// CostModel returns the persisted execution cost model, if any session
// has saved one.
func (s *Store) CostModel() (exec.CostModel, bool) {
	if s == nil {
		return exec.CostModel{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.index.Cost == nil {
		return exec.CostModel{}, false
	}
	return *s.index.Cost, true
}

// SetCostModel records the cost model to persist with the next Save.
func (s *Store) SetCostModel(c exec.CostModel) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.index.Cost = &c
}

// Names returns the scenario names recorded across all shards, sorted —
// a debugging/reporting convenience.
func (s *Store) Names() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, sh := range s.shards {
		for _, e := range sh.entries {
			out = append(out, e.Name)
		}
	}
	sort.Strings(out)
	return out
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
