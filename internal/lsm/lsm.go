// Package lsm is the disk-resident storage engine: a log-structured
// merge tree implementing storage.Engine, so replicas whose working
// set exceeds RAM can swap it in for the in-memory storage.KV without
// any replication-layer changes.
//
// Writes land in a mutable memtable (the same multi-version shape as
// storage.KV). When the memtable passes Options.MemtableBytes it is
// flushed as an immutable SSTable — a sorted run with a sparse block
// index and a per-table bloom filter (see sstable.go). Tables
// accumulate in size tiers; when a tier holds MaxTablesPerTier runs
// they are merged into one, dropping versions that no open snapshot or
// recorded Compact watermark can still observe. The table set is
// recorded in an atomic manifest reusing the WAL checkpoint machinery
// (wal.WriteSnapshot / LatestSnapshot), so a crash between file
// operations recovers to a consistent table set and orphaned runs are
// swept on open.
//
// The engine keeps no redo log of its own: the memtable is volatile by
// design, because every caller that needs durability already journals
// writes in the server WAL before they reach the engine and replays
// them on restart. Flushes happen on threshold, on Flush, and on
// Close, so a graceful shutdown persists everything.
package lsm

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/wire"
)

// DefaultMemtableBytes is the flush threshold when Options leaves it 0.
const DefaultMemtableBytes = 4 << 20

// Options configures an engine. Dir is required; everything else
// defaults sanely.
type Options struct {
	// Dir holds the SSTables and the manifest. Created if missing.
	Dir string
	// MemtableBytes is the flush threshold (default 4 MiB).
	MemtableBytes int
	// BlockBytes is the SSTable data block target size (default 16 KiB).
	BlockBytes int
	// BloomBitsPerKey sizes the per-table bloom filters (default 10,
	// ~1% false positives).
	BloomBitsPerKey int
	// MaxTablesPerTier triggers a size-tiered merge when one tier
	// accumulates this many runs (default 4).
	MaxTablesPerTier int
	// Async moves tier compaction to a background goroutine. Leave it
	// off under the deterministic simulator and in tests.
	Async bool
	// Logf receives diagnostics for background IO failures (optional).
	Logf func(format string, args ...any)
}

// Stats is a point-in-time snapshot of engine counters for /metrics.
type Stats struct {
	SSTables         int    // open immutable runs
	DiskBytes        int64  // bytes across all runs
	MemtableBytes    int    // approximate mutable level size
	MemtableVersions int    // versions not yet flushed
	Flushes          uint64 // memtable flushes since open
	Compactions      uint64 // table merges since open
	BloomMisses      uint64 // lookups a bloom filter excluded a table from
	BlockReads       uint64 // data blocks fetched from disk
	ReadErrors       uint64 // IO/CRC errors swallowed on the read path
}

// tableIO carries the engine's read-path counters into table methods.
type tableIO struct {
	blockReads  atomic.Uint64
	bloomMisses atomic.Uint64
	readErrors  atomic.Uint64
}

// Engine is the LSM implementation of storage.Engine. Safe for
// concurrent use; one RWMutex covers the memtable and the table set,
// and reads hold it shared for their whole duration so compaction can
// close swapped-out files without racing readers.
type Engine struct {
	opts Options

	mu          sync.RWMutex
	seq         uint64
	mem         *memtable
	tables      []*table
	nextID      uint64
	manifestVer uint64
	watermark   uint64         // highest keepSeq an explicit Compact recorded
	snaps       map[uint64]int // open snapshot seq -> refcount
	closed      bool

	io          tableIO
	flushes     atomic.Uint64
	compactions atomic.Uint64

	compactCh   chan struct{}
	compactDone chan struct{}
}

var _ storage.Engine = (*Engine)(nil)

// manifest is the payload of one manifest checkpoint: the engine's
// sequence horizon and the live table set, oldest run first (a table's
// footer carries its own seq bounds). Encoded as uvarints behind a byte
// that versions the layout under wire.CheckFormat's rule:
//
//	[manifestFormat][seq][next table id][watermark][count][table id …]
type manifest struct {
	seq, nextID, watermark uint64
	tables                 []uint64
}

const manifestFormat = 0xC1

func appendManifest(dst []byte, m manifest) []byte {
	dst = append(dst, manifestFormat)
	dst = wire.AppendUvarint(dst, m.seq)
	dst = wire.AppendUvarint(dst, m.nextID)
	dst = wire.AppendUvarint(dst, m.watermark)
	dst = wire.AppendUvarint(dst, uint64(len(m.tables)))
	for _, id := range m.tables {
		dst = wire.AppendUvarint(dst, id)
	}
	return dst
}

func decodeManifest(state []byte) (manifest, error) {
	r, err := wire.NewVersionedReader("lsm: manifest", state, manifestFormat)
	if err != nil {
		return manifest{}, err
	}
	m := manifest{seq: r.Uvarint(), nextID: r.Uvarint(), watermark: r.Uvarint()}
	for i := r.Count(); i > 0; i-- {
		m.tables = append(m.tables, r.Uvarint())
	}
	if err := r.Close(); err != nil {
		return manifest{}, fmt.Errorf("lsm: manifest: %w", err)
	}
	return m, nil
}

func tableFileName(id uint64) string { return fmt.Sprintf("sst-%016x.sst", id) }

// Open opens (or creates) the engine rooted at opts.Dir, restoring the
// table set from the latest valid manifest and sweeping orphaned runs
// a crash may have left behind.
func Open(opts Options) (*Engine, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("lsm: Options.Dir is required")
	}
	if opts.MemtableBytes <= 0 {
		opts.MemtableBytes = DefaultMemtableBytes
	}
	if opts.BlockBytes <= 0 {
		opts.BlockBytes = 16 << 10
	}
	if opts.BloomBitsPerKey <= 0 {
		opts.BloomBitsPerKey = 10
	}
	if opts.MaxTablesPerTier <= 1 {
		opts.MaxTablesPerTier = 4
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	e := &Engine{
		opts:  opts,
		mem:   newMemtable(),
		snaps: make(map[uint64]int),
	}
	ver, state, found, err := wal.LatestSnapshot(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("lsm: read manifest: %w", err)
	}
	inManifest := make(map[string]bool)
	if found {
		// A manifest that does not decode fails Open here, before the
		// sweep below: the sweep trusts the manifest's table list, and
		// with none it would delete every run in the directory.
		m, err := decodeManifest(state)
		if err != nil {
			return nil, err
		}
		e.manifestVer = ver
		e.seq = m.seq
		e.nextID = m.nextID
		e.watermark = m.watermark
		for _, id := range m.tables {
			name := tableFileName(id)
			inManifest[name] = true
			t, err := openTable(filepath.Join(opts.Dir, name))
			if err != nil {
				e.closeTablesLocked()
				return nil, fmt.Errorf("lsm: open %s: %w", name, err)
			}
			t.id, t.io = id, &e.io
			e.tables = append(e.tables, t)
		}
	}
	// Runs not in the manifest are flushes or merges that lost the race
	// with a crash before their manifest write; their contents are
	// either still in older runs or will be replayed by the caller's
	// redo log, so they are dead weight.
	names, err := os.ReadDir(opts.Dir)
	if err != nil {
		e.closeTablesLocked()
		return nil, err
	}
	for _, de := range names {
		if strings.HasSuffix(de.Name(), ".sst") && !inManifest[de.Name()] {
			os.Remove(filepath.Join(opts.Dir, de.Name()))
		}
	}
	if opts.Async {
		e.compactCh = make(chan struct{}, 1)
		e.compactDone = make(chan struct{})
		go e.compactLoop()
	}
	return e, nil
}

func (e *Engine) logf(format string, args ...any) {
	if e.opts.Logf != nil {
		e.opts.Logf(format, args...)
	}
}

func (e *Engine) compactLoop() {
	defer close(e.compactDone)
	for range e.compactCh {
		e.mu.Lock()
		if !e.closed {
			e.maybeCompactTiersLocked()
		}
		e.mu.Unlock()
	}
}

// ── storage.Engine: writes ─────────────────────────────────────────────

// Seq returns the sequence number of the newest committed write.
func (e *Engine) Seq() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.seq
}

// Put commits a new version of key and returns its sequence number.
func (e *Engine) Put(key string, value []byte, meta []byte) uint64 {
	return e.commit(key, storage.Version{Value: value, Meta: meta})
}

// Delete commits a tombstone for key and returns its sequence number.
func (e *Engine) Delete(key string, meta []byte) uint64 {
	return e.commit(key, storage.Version{Tombstone: true, Meta: meta})
}

func (e *Engine) commit(key string, v storage.Version) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.seq++
	v.Seq = e.seq
	e.mem.add(key, v)
	if e.mem.bytes >= e.opts.MemtableBytes {
		if err := e.flushLocked(); err != nil {
			// Keep the memtable; the next threshold crossing retries.
			e.logf("lsm: flush: %v", err)
		}
	}
	return v.Seq
}

// Flush forces the memtable to disk as an SSTable (no-op when empty).
func (e *Engine) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.flushLocked()
}

func (e *Engine) flushLocked() error {
	if len(e.mem.keys) == 0 {
		return nil
	}
	entries := make([]tableEntry, 0, len(e.mem.keys))
	for _, key := range e.mem.keys {
		entries = append(entries, tableEntry{key: key, versions: e.mem.versions[key]})
	}
	id := e.nextID
	t, err := writeTable(filepath.Join(e.opts.Dir, tableFileName(id)),
		entries, e.opts.BlockBytes, e.opts.BloomBitsPerKey)
	if err != nil {
		return err
	}
	t.id, t.io = id, &e.io
	e.nextID++
	e.tables = append(e.tables, t)
	e.mem = newMemtable()
	e.flushes.Add(1)
	if err := e.writeManifestLocked(); err != nil {
		return err
	}
	if e.opts.Async {
		select {
		case e.compactCh <- struct{}{}:
		default:
		}
	} else {
		e.maybeCompactTiersLocked()
	}
	return nil
}

func (e *Engine) writeManifestLocked() error {
	m := manifest{seq: e.seq, nextID: e.nextID, watermark: e.watermark}
	for _, t := range e.tables {
		m.tables = append(m.tables, t.id)
	}
	e.manifestVer++
	return wal.WriteSnapshot(e.opts.Dir, e.manifestVer, appendManifest(nil, m))
}

// ── storage.Engine: reads ──────────────────────────────────────────────

// newestAtMost returns the newest version with Seq <= at from an
// ascending version list.
func newestAtMost(vs []storage.Version, at uint64) (storage.Version, bool) {
	i := sort.Search(len(vs), func(i int) bool { return vs[i].Seq > at })
	if i == 0 {
		return storage.Version{}, false
	}
	return vs[i-1], true
}

// lookupLocked resolves key's version visible at `at` across the
// memtable and every run, tombstone or not. Runs have pairwise disjoint
// seq ranges, but tier merges can union non-adjacent ranges, so the
// lookup merges candidates from all runs instead of trusting any single
// ordering. A version found in a run is not copied: it aliases the block
// buffer bp, which the caller releases when done with it (bp is nil for
// a memtable version, whose bytes the engine never reuses). Caller
// holds e.mu (shared suffices).
func (e *Engine) lookupLocked(key string, at uint64) (best storage.Version, bp *[]byte, found bool) {
	if vs, ok := e.mem.get(key); ok {
		if v, ok := newestAtMost(vs, at); ok {
			return v, nil, true
		}
	}
	for _, t := range e.tables {
		if t.minSeq > at {
			continue
		}
		v, vbp, ok, skipped, err := t.lookup(key, at)
		if skipped {
			e.io.bloomMisses.Add(1)
			continue
		}
		if err != nil {
			e.io.readErrors.Add(1)
			e.logf("lsm: read %s: %v", t.path, err)
			continue
		}
		if !ok {
			continue
		}
		if found && v.Seq <= best.Seq {
			releaseBlock(vbp)
			continue
		}
		if bp != nil {
			releaseBlock(bp)
		}
		best, bp, found = v, vbp, true
	}
	return best, bp, found
}

// getMergedLocked is lookupLocked plus the copy a returned version needs.
func (e *Engine) getMergedLocked(key string, at uint64, includeTombstone bool) (storage.Version, bool) {
	v, bp, ok := e.lookupLocked(key, at)
	if bp != nil {
		defer releaseBlock(bp)
	}
	if !ok || (v.Tombstone && !includeTombstone) {
		return storage.Version{}, false
	}
	if bp != nil {
		v = ownVersion(v)
	}
	return v, true
}

// Get returns the latest live version of key.
func (e *Engine) Get(key string) (storage.Version, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.getMergedLocked(key, ^uint64(0), false)
}

// View lends the latest live version of key to fn, uncopied: a version
// read from a run aliases its pooled block buffer, which goes back to the
// pool when fn returns.
func (e *Engine) View(key string, fn func(storage.Version)) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	v, bp, ok := e.lookupLocked(key, ^uint64(0))
	if bp != nil {
		defer releaseBlock(bp)
	}
	if !ok || v.Tombstone {
		return false
	}
	fn(v)
	return true
}

// GetAt returns the newest version of key with Seq <= at, if live.
func (e *Engine) GetAt(key string, at uint64) (storage.Version, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.getMergedLocked(key, at, false)
}

// GetAny returns the latest version of key including tombstones.
func (e *Engine) GetAny(key string) (storage.Version, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.getMergedLocked(key, ^uint64(0), true)
}

// scanMergedLocked resolves every key in [lo, hi) at `at` across the
// memtable and all runs, in key order, stopping at limit pairs (0 = no
// limit). A limited scan reads in windows of at most limit keys per run
// rather than materializing the whole range first, so Scan(lo, hi, 1)
// costs a block per run, not the tree. Caller holds e.mu (shared
// suffices).
func (e *Engine) scanMergedLocked(lo, hi string, limit int, at uint64, includeTombstones bool) []storage.Pair {
	var out []storage.Pair
	for {
		pairs, last, cut := e.scanWindowLocked(lo, hi, limit-len(out), at, includeTombstones)
		out = append(out, pairs...)
		if limit > 0 && len(out) >= limit {
			return out[:limit] // a window holds up to per keys of every source
		}
		if !cut {
			return out
		}
		lo = last + "\x00" // the smallest key after the window
	}
}

// scanWindowLocked materializes the version histories of the keys in
// [lo, hi), taking at most per keys from the memtable and from each run
// (per <= 0: all of them), and resolves each key at `at`. If some source
// was cut short, cut is set and the window ends at last, the smallest key
// any source stopped on: every source has given all it holds up to there,
// so the pairs returned are exactly the range's pairs through last.
func (e *Engine) scanWindowLocked(lo, hi string, per int, at uint64, includeTombstones bool) (out []storage.Pair, last string, cut bool) {
	stopAt := func(key string) {
		if !cut || key < last {
			last, cut = key, true
		}
	}
	acc := make(map[string][]storage.Version)
	memKeys := e.mem.rangeKeys(lo, hi)
	if per > 0 && len(memKeys) >= per {
		memKeys = memKeys[:per]
		stopAt(memKeys[per-1])
	}
	for _, key := range memKeys {
		acc[key] = append(acc[key], e.mem.versions[key]...)
	}
	for _, t := range e.tables {
		if t.minSeq > at {
			continue
		}
		taken := 0
		err := t.scanRange(lo, hi, func(key string, vs []storage.Version) bool {
			acc[key] = append(acc[key], vs...)
			if taken++; taken == per {
				stopAt(key)
				return false
			}
			return true
		})
		if err != nil {
			e.io.readErrors.Add(1)
			e.logf("lsm: scan %s: %v", t.path, err)
		}
	}
	keys := make([]string, 0, len(acc))
	for key := range acc {
		if !cut || key <= last {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		vs := acc[key]
		sort.Slice(vs, func(i, j int) bool { return vs[i].Seq < vs[j].Seq })
		v, ok := newestAtMost(vs, at)
		if !ok || (v.Tombstone && !includeTombstones) {
			continue
		}
		out = append(out, storage.Pair{Key: key, Version: v})
	}
	return out, last, cut
}

// Scan returns up to limit live pairs in [lo, hi) in key order.
func (e *Engine) Scan(lo, hi string, limit int) []storage.Pair {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.scanMergedLocked(lo, hi, limit, ^uint64(0), false)
}

// ScanAll is Scan including tombstoned keys.
func (e *Engine) ScanAll(lo, hi string, limit int) []storage.Pair {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.scanMergedLocked(lo, hi, limit, ^uint64(0), true)
}

// Len returns the number of live keys.
func (e *Engine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.scanMergedLocked("", "", 0, ^uint64(0), false))
}

// VersionCount reports stored versions across the memtable and all
// runs. Unlike KV, versions made obsolete by Compact linger until the
// merge that rewrites their run, so this is an upper bound between
// compactions.
func (e *Engine) VersionCount() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := e.mem.versionCount()
	for _, t := range e.tables {
		n += t.versions
	}
	return n
}

// ── snapshots ──────────────────────────────────────────────────────────

type lsmSnapshot struct {
	e        *Engine
	at       uint64
	released atomic.Bool
}

// OpenSnapshot anchors a read view at the current Seq and pins it
// against compaction until Release.
func (e *Engine) OpenSnapshot() storage.EngineSnapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.snaps[e.seq]++
	return &lsmSnapshot{e: e, at: e.seq}
}

func (s *lsmSnapshot) Seq() uint64 { return s.at }

func (s *lsmSnapshot) Get(key string) (storage.Version, bool) {
	s.e.mu.RLock()
	defer s.e.mu.RUnlock()
	return s.e.getMergedLocked(key, s.at, false)
}

func (s *lsmSnapshot) Scan(lo, hi string, limit int) []storage.Pair {
	s.e.mu.RLock()
	defer s.e.mu.RUnlock()
	return s.e.scanMergedLocked(lo, hi, limit, s.at, false)
}

func (s *lsmSnapshot) Release() {
	if s.released.Swap(true) {
		return
	}
	s.e.mu.Lock()
	defer s.e.mu.Unlock()
	if n := s.e.snaps[s.at]; n > 1 {
		s.e.snaps[s.at] = n - 1
	} else {
		delete(s.e.snaps, s.at)
	}
}

// minSnapLocked returns the oldest open snapshot seq, or max-uint64.
func (e *Engine) minSnapLocked() uint64 {
	min := ^uint64(0)
	for at := range e.snaps {
		if at < min {
			min = at
		}
	}
	return min
}

// ── compaction ─────────────────────────────────────────────────────────

// Compact records keepSeq as the version-retention watermark, prunes
// the memtable, and — when more than one run exists — merges the full
// table set, dropping every version no read at or after the watermark
// (or an older open snapshot) could observe and purging keys whose
// entire surviving history is one tombstone at or below it.
func (e *Engine) Compact(keepSeq uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if keepSeq > e.watermark {
		e.watermark = keepSeq
	}
	eff := e.watermark
	if m := e.minSnapLocked(); m < eff {
		eff = m
	}
	e.mem.compact(eff, func(key string) bool { return !e.tablesHaveKeyLocked(key) })
	// Rewrite the table set when a merge can reclaim something: several
	// runs to fold together, or a lone run still carrying superseded
	// versions. A lone run at one version per key is left alone (its
	// tombstones may linger until the next multi-run merge).
	if len(e.tables) >= 2 || (len(e.tables) == 1 && e.tables[0].versions > e.tables[0].keys) {
		if err := e.mergeLocked(e.tables, true, eff); err != nil {
			e.logf("lsm: compact: %v", err)
		}
	}
}

// tablesHaveKeyLocked reports whether any run may still hold key (by
// bloom, erring toward "yes") — the memtable may purge a lone
// tombstone only when no older level can resurrect the key.
func (e *Engine) tablesHaveKeyLocked(key string) bool {
	for _, t := range e.tables {
		if t.bloom.mayContain(key) {
			return true
		}
	}
	return false
}

// tierOf buckets a run by size: tier 0 holds runs under 64 KiB, each
// further tier covers a 4x size band — the classic size-tiered shape
// where repeated merges promote runs upward.
func tierOf(size int64) int {
	t := 0
	for s := size >> 16; s > 0; s >>= 2 {
		t++
	}
	return t
}

// maybeCompactTiersLocked merges any tier holding MaxTablesPerTier or
// more runs, repeating until no tier is over-full.
func (e *Engine) maybeCompactTiersLocked() {
	for {
		byTier := make(map[int][]*table)
		for _, t := range e.tables {
			tier := tierOf(t.size)
			byTier[tier] = append(byTier[tier], t)
		}
		tiers := make([]int, 0, len(byTier))
		for tier := range byTier {
			tiers = append(tiers, tier)
		}
		sort.Ints(tiers)
		var pick []*table
		for _, tier := range tiers {
			if len(byTier[tier]) >= e.opts.MaxTablesPerTier {
				pick = byTier[tier]
				break
			}
		}
		if pick == nil {
			return
		}
		eff := e.watermark
		if m := e.minSnapLocked(); m < eff {
			eff = m
		}
		if err := e.mergeLocked(pick, len(pick) == len(e.tables), eff); err != nil {
			e.logf("lsm: tier merge: %v", err)
			return
		}
	}
}

// mergeLocked rewrites inputs as one run. Within the merged set a
// version is dropped when a newer version of the same key exists at or
// below eff — any read at or after eff resolves to the newer one
// regardless of what other levels hold. Purging a key entirely (its
// one surviving version is a tombstone <= eff) additionally requires
// complete=true (the merge covers every run) and no memtable entry,
// because only then is the tombstone provably the key's newest version.
func (e *Engine) mergeLocked(inputs []*table, complete bool, eff uint64) error {
	merged := make(map[string][]storage.Version)
	for _, t := range inputs {
		err := t.scanRange("", "", func(key string, vs []storage.Version) bool {
			merged[key] = append(merged[key], vs...)
			return true
		})
		if err != nil {
			return err
		}
	}
	keys := make([]string, 0, len(merged))
	for key := range merged {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	entries := make([]tableEntry, 0, len(keys))
	for _, key := range keys {
		vs := merged[key]
		sort.Slice(vs, func(i, j int) bool { return vs[i].Seq < vs[j].Seq })
		if mvs, inMem := e.mem.get(key); inMem {
			if _, visible := newestAtMost(mvs, eff); visible {
				// Every memtable version outranks every run version, so a
				// memtable version at or below eff supersedes the key's
				// whole on-disk history: no read at or after eff (nor any
				// open snapshot, all >= eff) can observe it.
				continue
			}
		}
		if i := sort.Search(len(vs), func(i int) bool { return vs[i].Seq > eff }); i > 1 {
			vs = vs[i-1:]
		}
		if complete && len(vs) == 1 && vs[0].Tombstone && vs[0].Seq <= eff {
			if _, inMem := e.mem.get(key); !inMem {
				continue
			}
		}
		entries = append(entries, tableEntry{key: key, versions: vs})
	}

	inputSet := make(map[*table]bool, len(inputs))
	for _, t := range inputs {
		inputSet[t] = true
	}
	// Fresh slice: inputs may be e.tables itself, so appending into the
	// old backing array would overwrite the very tables the cleanup
	// loop below still needs to close.
	kept := make([]*table, 0, len(e.tables))
	for _, t := range e.tables {
		if !inputSet[t] {
			kept = append(kept, t)
		}
	}
	if len(entries) > 0 {
		id := e.nextID
		nt, err := writeTable(filepath.Join(e.opts.Dir, tableFileName(id)),
			entries, e.opts.BlockBytes, e.opts.BloomBitsPerKey)
		if err != nil {
			e.tables = append(kept, inputs...) // restore; retry later
			return err
		}
		nt.id, nt.io = id, &e.io
		e.nextID++
		kept = append(kept, nt)
	}
	e.tables = kept
	e.compactions.Add(1)
	if err := e.writeManifestLocked(); err != nil {
		return err
	}
	// The manifest no longer references the inputs; close and unlink.
	// Readers cannot hold these files: reads run under the same mutex.
	for _, t := range inputs {
		t.close()
		os.Remove(t.path)
	}
	return nil
}

// ── lifecycle ──────────────────────────────────────────────────────────

// Stats returns current counters for metrics export.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	s := Stats{
		SSTables:         len(e.tables),
		MemtableBytes:    e.mem.bytes,
		MemtableVersions: e.mem.versionCount(),
		Flushes:          e.flushes.Load(),
		Compactions:      e.compactions.Load(),
		BloomMisses:      e.io.bloomMisses.Load(),
		BlockReads:       e.io.blockReads.Load(),
		ReadErrors:       e.io.readErrors.Load(),
	}
	for _, t := range e.tables {
		s.DiskBytes += t.size
	}
	return s
}

func (e *Engine) closeTablesLocked() {
	for _, t := range e.tables {
		t.close()
	}
	e.tables = nil
}

// Close flushes the memtable, persists the manifest, and releases
// every file. The engine is unusable afterwards.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	err := e.flushLocked()
	e.closeTablesLocked()
	e.mu.Unlock()
	if e.compactCh != nil {
		close(e.compactCh)
		<-e.compactDone
	}
	return err
}
