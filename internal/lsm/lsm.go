// Package lsm is the disk-resident storage engine: a log-structured
// merge tree implementing storage.Engine, so replicas whose working
// set exceeds RAM can swap it in for the in-memory storage.KV without
// any replication-layer changes.
//
// Writes land in a mutable memtable (a storage.KV). When the memtable
// passes Options.MemtableBytes it is flushed as an immutable SSTable — a
// sorted run of (key, value) groups with a sparse block index and a
// per-table bloom filter (see sstable.go). The engine keeps one value per
// key and no sequence numbers: recency is position. The manifest lists
// the tables oldest first, a flush appends to that list, and a merge
// takes a contiguous run of tables and puts its output in their slot, so
// a lookup that walks memtable → newest table → oldest can stop at the
// first hit. Tables accumulate in size tiers; when MaxTablesPerTier
// adjacent runs share a tier they are merged into one, newest value
// winning. The table set is recorded in an atomic manifest reusing the
// WAL checkpoint machinery (wal.WriteSnapshot / LatestSnapshot), so a
// crash between file operations recovers to a consistent table set and
// orphaned runs are swept on open.
//
// The engine keeps no redo log of its own: the memtable is volatile by
// design, because every caller that needs durability already journals
// writes in the server WAL before they reach the engine and replays
// them on restart. Flushes happen on threshold, on Flush, and on
// Close, so a graceful shutdown persists everything.
package lsm

import (
	"bytes"
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
	// MaxTablesPerTier triggers a size-tiered merge when this many
	// adjacent runs share a tier (default 4).
	MaxTablesPerTier int
	// Async moves tier compaction to a background goroutine. Leave it
	// off under the deterministic simulator and in tests.
	Async bool
	// Logf receives diagnostics for background IO failures (optional).
	Logf func(format string, args ...any)
}

// Stats is a point-in-time snapshot of engine counters for /metrics.
type Stats struct {
	SSTables      int    // open immutable runs
	DiskBytes     int64  // bytes across all runs
	MemtableBytes int    // key and value bytes in the mutable level
	Flushes       uint64 // memtable flushes since open
	FlushErrors   uint64 // memtable flushes that failed since open
	Compactions   uint64 // table merges since open
	BloomMisses   uint64 // lookups a bloom filter excluded a table from
	BlockReads    uint64 // data blocks fetched from disk
	ReadErrors    uint64 // IO/CRC errors swallowed on the read path
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
	mem         *storage.KV
	flushAt     int      // memtable size that triggers the next flush
	tables      []*table // oldest first
	nextID      uint64
	manifestVer uint64
	closed      bool

	io          tableIO
	flushes     atomic.Uint64
	flushErrors atomic.Uint64
	compactions atomic.Uint64

	compactCh   chan struct{}
	compactDone chan struct{}
}

var _ storage.Engine = (*Engine)(nil)

// manifest is the payload of one manifest checkpoint: the next table id
// and the live table set, oldest run first — the order every read and
// merge takes recency from. Encoded as uvarints behind a byte that
// versions the layout under wire.CheckFormat's rule:
//
//	[manifestFormat][next table id][count][table id …]
type manifest struct {
	nextID uint64
	tables []uint64
}

const (
	manifestFormat = 0xC2
	// manifestFormatSeq is the retired layout whose tables carried
	// sequence numbers; a directory written in it is refused.
	manifestFormatSeq = 0xC1
)

func appendManifest(dst []byte, m manifest) []byte {
	dst = append(dst, manifestFormat)
	dst = wire.AppendUvarint(dst, m.nextID)
	dst = wire.AppendUvarint(dst, uint64(len(m.tables)))
	for _, id := range m.tables {
		dst = wire.AppendUvarint(dst, id)
	}
	return dst
}

func decodeManifest(state []byte) (manifest, error) {
	if len(state) > 0 && state[0] == manifestFormatSeq {
		return manifest{}, fmt.Errorf("lsm: manifest: %w", wire.ErrFormatTooOld)
	}
	r, err := wire.NewVersionedReader("lsm: manifest", state, manifestFormat)
	if err != nil {
		return manifest{}, err
	}
	m := manifest{nextID: r.Uvarint()}
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
	e := &Engine{opts: opts, mem: storage.NewKV(), flushAt: opts.MemtableBytes}
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
		e.nextID = m.nextID
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

// Put stores value as key's value. The engine keeps value itself until
// the memtable is flushed: the caller must not write through it.
func (e *Engine) Put(key string, value []byte, _ []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.mem.Put(key, value, nil)
	if e.mem.Bytes() >= e.flushAt {
		if err := e.flushLocked(); err != nil {
			// Keep the memtable and retry once it has grown by another
			// threshold's worth, not on every later Put.
			e.flushAt = e.mem.Bytes() + e.opts.MemtableBytes
			e.logf("lsm: flush: %v", err)
		}
	}
}

// Flush forces the memtable to disk as an SSTable (no-op when empty).
func (e *Engine) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.flushLocked()
}

func (e *Engine) flushLocked() error {
	if e.mem.Len() == 0 {
		return nil
	}
	id := e.nextID
	t, err := writeTable(filepath.Join(e.opts.Dir, tableFileName(id)),
		e.mem.Scan("", "", 0), e.opts.BlockBytes, e.opts.BloomBitsPerKey)
	if err != nil {
		e.flushErrors.Add(1)
		return err
	}
	t.id, t.io = id, &e.io
	e.nextID++
	e.tables = append(e.tables, t)
	e.mem = storage.NewKV()
	e.flushAt = e.opts.MemtableBytes
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
	m := manifest{nextID: e.nextID}
	for _, t := range e.tables {
		m.tables = append(m.tables, t.id)
	}
	e.manifestVer++
	return wal.WriteSnapshot(e.opts.Dir, e.manifestVer, bytes.NewReader(appendManifest(nil, m)))
}

// ── storage.Engine: reads ──────────────────────────────────────────────

// lookupLocked finds key's value, walking the memtable and then the runs
// newest first and stopping at the first that holds it (or fails to
// read). A value found in a run is not copied: it aliases the block
// buffer bp, which the caller releases when done with it (bp is nil for
// a memtable value, whose bytes the engine never reuses). Caller holds
// e.mu (shared suffices).
func (e *Engine) lookupLocked(key string) (val []byte, bp *[]byte, found bool) {
	if v, ok := e.mem.Get(key); ok {
		return v, nil, true
	}
	for i := len(e.tables) - 1; i >= 0; i-- {
		t := e.tables[i]
		v, vbp, ok, skipped, err := t.lookup(key)
		if skipped {
			e.io.bloomMisses.Add(1)
			continue
		}
		if err != nil {
			e.io.readErrors.Add(1)
			e.logf("lsm: read %s: %v", t.path, err)
			return nil, nil, false
		}
		if ok {
			return v, vbp, true
		}
	}
	return nil, nil, false
}

// Get returns key's value, copied out of the block it was read from.
func (e *Engine) Get(key string) ([]byte, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	v, bp, ok := e.lookupLocked(key)
	if bp != nil {
		v = bytes.Clone(v)
		releaseBlock(bp)
	}
	return v, ok
}

// View lends key's value to fn, uncopied: a value read from a run aliases
// its pooled block buffer, which goes back to the pool when fn returns.
func (e *Engine) View(key string, fn func([]byte)) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	v, bp, ok := e.lookupLocked(key)
	if bp != nil {
		defer releaseBlock(bp)
	}
	if ok {
		fn(v)
	}
	return ok
}

// scanMergedLocked resolves every key in [lo, hi) across the memtable and
// all runs, in key order, stopping at limit pairs (0 = no limit). A
// limited scan reads in windows of at most limit keys per source rather
// than materializing the whole range first, so Scan(lo, hi, 1) costs a
// block per run, not the tree. Caller holds e.mu (shared suffices).
func (e *Engine) scanMergedLocked(lo, hi string, limit int) []storage.Pair {
	var out []storage.Pair
	for {
		pairs, last, cut := e.scanWindowLocked(lo, hi, limit-len(out))
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

// scanWindowLocked collects the keys in [lo, hi), taking at most per keys
// from the memtable and from each run (per <= 0: all of them), newest
// source first so the first value seen for a key is its value. If some
// source was cut short, cut is set and the window ends at last, the
// smallest key any source stopped on: every source has given all it
// holds up to there, so the pairs returned are exactly the range's pairs
// through last.
func (e *Engine) scanWindowLocked(lo, hi string, per int) (out []storage.Pair, last string, cut bool) {
	stopAt := func(key string) {
		if !cut || key < last {
			last, cut = key, true
		}
	}
	acc := make(map[string][]byte)
	mem := e.mem.Scan(lo, hi, per)
	if per > 0 && len(mem) == per {
		stopAt(mem[per-1].Key)
	}
	for _, p := range mem {
		acc[p.Key] = p.Value
	}
	for i := len(e.tables) - 1; i >= 0; i-- {
		t := e.tables[i]
		taken := 0
		err := t.scanRange(lo, hi, func(key string, val []byte) bool {
			if _, seen := acc[key]; !seen {
				acc[key] = val
			}
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
	for key, val := range acc {
		if !cut || key <= last {
			out = append(out, storage.Pair{Key: key, Value: val})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, last, cut
}

// Scan returns up to limit pairs in [lo, hi) in key order.
func (e *Engine) Scan(lo, hi string, limit int) []storage.Pair {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.scanMergedLocked(lo, hi, limit)
}

// Len returns the number of keys.
func (e *Engine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.scanMergedLocked("", "", 0))
}

// ── compaction ─────────────────────────────────────────────────────────

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

// maybeCompactTiersLocked merges any run of MaxTablesPerTier or more
// adjacent tables that share a tier, lowest tier first, repeating until
// there is none. Only adjacent tables merge: the output takes their
// slot, so every table keeps its place in the age order reads rely on.
func (e *Engine) maybeCompactTiersLocked() {
	for {
		from, to, best := 0, 0, -1
		for i := 0; i < len(e.tables); {
			j := i + 1
			tier := tierOf(e.tables[i].size)
			for j < len(e.tables) && tierOf(e.tables[j].size) == tier {
				j++
			}
			if j-i >= e.opts.MaxTablesPerTier && (best < 0 || tier < best) {
				from, to, best = i, j, tier
			}
			i = j
		}
		if best < 0 {
			return
		}
		if err := e.mergeLocked(from, to); err != nil {
			e.logf("lsm: tier merge: %v", err)
			return
		}
	}
}

// mergeLocked rewrites the adjacent tables e.tables[from:to] as one run
// in their slot. Walking the inputs newest first, the first value seen
// for a key is its value.
func (e *Engine) mergeLocked(from, to int) error {
	inputs := e.tables[from:to]
	merged := make(map[string][]byte)
	for i := len(inputs) - 1; i >= 0; i-- {
		err := inputs[i].scanRange("", "", func(key string, val []byte) bool {
			if _, seen := merged[key]; !seen {
				merged[key] = val
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	pairs := make([]storage.Pair, 0, len(merged))
	for key, val := range merged {
		pairs = append(pairs, storage.Pair{Key: key, Value: val})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Key < pairs[j].Key })
	id := e.nextID
	nt, err := writeTable(filepath.Join(e.opts.Dir, tableFileName(id)),
		pairs, e.opts.BlockBytes, e.opts.BloomBitsPerKey)
	if err != nil {
		return err
	}
	nt.id, nt.io = id, &e.io
	e.nextID++
	// Fresh slice: inputs aliases e.tables, which the cleanup loop below
	// still needs to read.
	tables := make([]*table, 0, len(e.tables)-len(inputs)+1)
	tables = append(tables, e.tables[:from]...)
	tables = append(tables, nt)
	tables = append(tables, e.tables[to:]...)
	e.tables = tables
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
		SSTables:      len(e.tables),
		MemtableBytes: e.mem.Bytes(),
		Flushes:       e.flushes.Load(),
		FlushErrors:   e.flushErrors.Load(),
		Compactions:   e.compactions.Load(),
		BloomMisses:   e.io.bloomMisses.Load(),
		BlockReads:    e.io.blockReads.Load(),
		ReadErrors:    e.io.readErrors.Load(),
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
