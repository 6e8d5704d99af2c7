package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/enginetest"
)

func openTest(t *testing.T, opts Options) *Engine {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	e, err := Open(opts)
	if err != nil {
		t.Fatalf("lsm.Open: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestEngineConformance runs the shared storage.Engine suite in two
// shapes: a big memtable (everything stays in memory) and a tiny one
// (every few writes flush, so reads and compaction constantly cross
// the memtable/SSTable boundary).
func TestEngineConformance(t *testing.T) {
	t.Run("memtable-only", func(t *testing.T) {
		enginetest.Run(t, func(t *testing.T) storage.Engine {
			return openReopenable(t, Options{})
		})
	})
	t.Run("flush-heavy", func(t *testing.T) {
		enginetest.Run(t, func(t *testing.T) storage.Engine {
			return openReopenable(t, Options{MemtableBytes: 2 << 10, BlockBytes: 512})
		})
	})
}

// reopenable is an engine the conformance suite can close and open again
// over its directory (an enginetest.Reopener).
type reopenable struct {
	*Engine
	opts Options
}

func openReopenable(t *testing.T, opts Options) reopenable {
	opts.Dir = t.TempDir()
	return reopenable{openTest(t, opts), opts}
}

func (r reopenable) Reopen(t *testing.T) storage.Engine {
	if err := r.Engine.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return reopenable{openTest(t, r.opts), r.opts}
}

func TestReopenRecoversFlushedState(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, Options{Dir: dir, MemtableBytes: 1 << 10})
	const n = 200
	for i := 0; i < n; i++ {
		e.Put(fmt.Sprintf("key-%03d", i), []byte(fmt.Sprintf("val-%d", i)), nil)
	}
	e.Delete("key-007", nil)
	wantSeq := e.Seq()
	if err := e.Close(); err != nil { // Close flushes the memtable
		t.Fatalf("Close: %v", err)
	}

	r := openTest(t, Options{Dir: dir, MemtableBytes: 1 << 10})
	if got := r.Seq(); got != wantSeq {
		t.Fatalf("reopened Seq() = %d, want %d", got, wantSeq)
	}
	if got := r.Len(); got != n-1 {
		t.Fatalf("reopened Len() = %d, want %d", got, n-1)
	}
	if v, ok := r.Get("key-042"); !ok || string(v.Value) != "val-42" {
		t.Fatalf("reopened Get(key-042) = %+v, %v", v, ok)
	}
	if _, ok := r.Get("key-007"); ok {
		t.Fatal("reopened Get(key-007): deleted key visible")
	}
	if v, ok := r.GetAny("key-007"); !ok || !v.Tombstone {
		t.Fatalf("reopened GetAny(key-007) = %+v, %v; want tombstone", v, ok)
	}
	// Writes continue from the recovered sequence horizon.
	if s := r.Put("after", []byte("x"), nil); s != wantSeq+1 {
		t.Fatalf("post-reopen Put seq = %d, want %d", s, wantSeq+1)
	}
}

// TestOpenSweepsOrphanTables pins crash recovery: an .sst file not in
// the manifest (a flush or merge that died before its manifest write)
// is deleted on open rather than resurrected.
func TestOpenSweepsOrphanTables(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, Options{Dir: dir})
	e.Put("real", []byte("x"), nil)
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	orphan := filepath.Join(dir, tableFileName(999))
	if _, err := writeTable(orphan, []tableEntry{
		{key: "ghost", versions: []storage.Version{{Seq: 12345, Value: []byte("boo")}}},
	}, 0, 0); err != nil {
		t.Fatalf("write orphan: %v", err)
	}

	r := openTest(t, Options{Dir: dir})
	if _, ok := r.Get("ghost"); ok {
		t.Fatal("orphan table contents visible after reopen")
	}
	if v, ok := r.Get("real"); !ok || string(v.Value) != "x" {
		t.Fatalf("Get(real) = %+v, %v", v, ok)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan file still on disk (stat err = %v)", err)
	}
}

// TestBloomFiltersKeepNegativeLookupsCheap builds many SSTables, then
// hammers keys that don't exist: the bloom filters must exclude nearly
// every table without a block read.
func TestBloomFiltersKeepNegativeLookupsCheap(t *testing.T) {
	e := openTest(t, Options{MemtableBytes: 1 << 10, MaxTablesPerTier: 100})
	for i := 0; i < 500; i++ {
		e.Put(fmt.Sprintf("present-%04d", i), bytes.Repeat([]byte{byte(i)}, 32), nil)
	}
	st := e.Stats()
	if st.SSTables < 4 {
		t.Fatalf("want several SSTables, got %d", st.SSTables)
	}
	base := e.Stats().BlockReads

	const gets = 1000
	for i := 0; i < gets; i++ {
		if _, ok := e.Get(fmt.Sprintf("absent-%04d", i)); ok {
			t.Fatalf("absent key %d found", i)
		}
	}
	st = e.Stats()
	probes := uint64(gets) * uint64(st.SSTables)
	reads := st.BlockReads - base
	if st.BloomMisses == 0 {
		t.Fatal("bloom filters never excluded a table")
	}
	// ~1% false positives at 10 bits/key; allow 5% before failing.
	if reads*20 > probes {
		t.Fatalf("negative lookups read %d blocks over %d table probes (>5%%)", reads, probes)
	}
}

func TestLimitedScanReadsAWindowNotTheTree(t *testing.T) {
	// Scan with a limit must stop once it has the pairs asked for: one
	// block per run for limit 1, however large the tree, and it must still
	// walk on past a run of tombstones to the first live key.
	e := openTest(t, Options{MemtableBytes: 1 << 10, BlockBytes: 512, MaxTablesPerTier: 100})
	const n = 500
	for i := 0; i < n; i++ {
		e.Put(fmt.Sprintf("k-%04d", i), bytes.Repeat([]byte{byte(i)}, 32), nil)
	}
	st := e.Stats()
	if st.SSTables < 4 {
		t.Fatalf("want several SSTables, got %d", st.SSTables)
	}
	got := e.Scan("", "", 1)
	if len(got) != 1 || got[0].Key != "k-0000" {
		t.Fatalf("Scan limit 1 = %v, want k-0000", got)
	}
	if reads := e.Stats().BlockReads - st.BlockReads; reads > uint64(st.SSTables) {
		t.Fatalf("Scan limit 1 read %d blocks of %d tables", reads, st.SSTables)
	}
	for i := 0; i < 40; i++ {
		e.Delete(fmt.Sprintf("k-%04d", i), nil)
	}
	got = e.Scan("", "", 3)
	if len(got) != 3 || got[0].Key != "k-0040" || got[2].Key != "k-0042" {
		t.Fatalf("Scan limit 3 past 40 tombstones = %v, want k-0040..k-0042", got)
	}
	if all := e.ScanAll("", "", 3); len(all) != 3 || all[0].Key != "k-0000" {
		t.Fatalf("ScanAll limit 3 = %v, want the tombstoned k-0000 first", all)
	}
}

func TestTierCompactionBoundsTableCount(t *testing.T) {
	e := openTest(t, Options{MemtableBytes: 1 << 10, MaxTablesPerTier: 4})
	for i := 0; i < 2000; i++ {
		e.Put(fmt.Sprintf("key-%05d", i%300), []byte(fmt.Sprintf("value-%d", i)), nil)
	}
	st := e.Stats()
	if st.Flushes < 8 {
		t.Fatalf("want many flushes, got %d", st.Flushes)
	}
	if st.Compactions == 0 {
		t.Fatal("no tier compactions ran")
	}
	if st.SSTables >= int(st.Flushes) {
		t.Fatalf("compaction did not reduce table count: %d tables from %d flushes",
			st.SSTables, st.Flushes)
	}
	// Merges must not lose data: every key's newest version survives.
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("key-%05d", i)
		if _, ok := e.Get(key); !ok {
			t.Fatalf("key %q lost across compactions", key)
		}
	}
}

// TestCompactReclaimsDiskAndPurgesTombstones pins the explicit-Compact
// path: after overwrites and deletes, Compact at the current horizon
// merges all runs, drops obsolete versions, and purges fully
// tombstoned keys from disk.
func TestCompactReclaimsDiskAndPurgesTombstones(t *testing.T) {
	e := openTest(t, Options{MemtableBytes: 1 << 10})
	for round := 0; round < 10; round++ {
		for i := 0; i < 100; i++ {
			e.Put(fmt.Sprintf("key-%03d", i), bytes.Repeat([]byte{byte(round)}, 64), nil)
		}
	}
	for i := 0; i < 50; i++ {
		e.Delete(fmt.Sprintf("key-%03d", i), nil)
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	before := e.Stats()
	e.Compact(e.Seq())
	after := e.Stats()

	if after.DiskBytes >= before.DiskBytes {
		t.Fatalf("Compact did not reclaim disk: %d -> %d bytes", before.DiskBytes, after.DiskBytes)
	}
	if got := e.VersionCount(); got != 50 {
		t.Fatalf("VersionCount after full compact = %d, want 50 (one live version each)", got)
	}
	if got := e.Len(); got != 50 {
		t.Fatalf("Len after compact = %d, want 50", got)
	}
	// Purged tombstones are gone even from the any-version view.
	if _, ok := e.GetAny("key-000"); ok {
		t.Fatal("purged tombstone still visible via GetAny")
	}
}

func TestSnapshotPinsCompactionAcrossTables(t *testing.T) {
	e := openTest(t, Options{MemtableBytes: 1 << 10})
	for i := 0; i < 100; i++ {
		e.Put(fmt.Sprintf("key-%03d", i), []byte("old"), nil)
	}
	snap := e.OpenSnapshot()
	for i := 0; i < 100; i++ {
		e.Put(fmt.Sprintf("key-%03d", i), []byte("new"), nil)
	}
	// Compact at the live horizon; the open snapshot must clamp the cut.
	e.Compact(e.Seq())
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%03d", i)
		if v, ok := snap.Get(key); !ok || string(v.Value) != "old" {
			t.Fatalf("snap.Get(%q) = %+v, %v; want old", key, v, ok)
		}
	}
	snap.Release()
	// After release the cut applies on the next compaction.
	e.Compact(e.Seq())
	if got := e.VersionCount(); got != 100 {
		t.Fatalf("VersionCount after release+compact = %d, want 100", got)
	}
}

func TestMetaRoundTripsThroughFlush(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, Options{Dir: dir})
	want := map[string][]byte{"k": []byte("meta-string"), "k2": {1, 2, 3}, "empty": {}, "none": nil}
	for key, meta := range want {
		e.Put(key, []byte("v"), meta)
	}
	e.Delete("gone", []byte("why"))
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r := openTest(t, Options{Dir: dir})
	for key, meta := range want {
		// DeepEqual: a nil meta and an empty one stay apart.
		if v, ok := r.Get(key); !ok || !reflect.DeepEqual(v.Meta, meta) {
			t.Fatalf("Get(%s).Meta = %#v, %v; want %#v", key, v.Meta, ok, meta)
		}
	}
	if v, ok := r.GetAny("gone"); !ok || !v.Tombstone || string(v.Meta) != "why" {
		t.Fatalf("GetAny(gone) = %+v, %v; want a tombstone with meta why", v, ok)
	}
}

// TestCompactionPreservesFlatScanEquivalence is the compaction
// property test: however the version history is physically arranged —
// memtable, many small tables, or freshly merged runs — the live view
// must equal a flat map replaying the same operations. A random
// workload with interleaved Flush and Compact calls drives the engine
// through every arrangement; after each compaction the full scan, a
// handful of point gets, and Len must all match the model exactly.
func TestCompactionPreservesFlatScanEquivalence(t *testing.T) {
	e := openTest(t, Options{MemtableBytes: 1 << 10, BlockBytes: 256})
	rng := rand.New(rand.NewSource(11))
	flat := make(map[string]string) // live view: key -> newest value

	checkFlat := func(step int) {
		t.Helper()
		got := e.Scan("", "", 0)
		if len(got) != len(flat) {
			t.Fatalf("step %d: scan has %d keys, flat model %d", step, len(got), len(flat))
		}
		for _, p := range got {
			want, ok := flat[p.Key]
			if !ok {
				t.Fatalf("step %d: scan shows deleted/unknown key %q", step, p.Key)
			}
			if string(p.Version.Value) != want {
				t.Fatalf("step %d: key %q = %q, flat model %q", step, p.Key, p.Version.Value, want)
			}
			if p.Version.Tombstone {
				t.Fatalf("step %d: live scan returned tombstone for %q", step, p.Key)
			}
		}
		if e.Len() != len(flat) {
			t.Fatalf("step %d: Len = %d, flat model %d", step, e.Len(), len(flat))
		}
	}

	const keys = 60
	for step := 0; step < 4000; step++ {
		key := fmt.Sprintf("p-%02d", rng.Intn(keys))
		switch {
		case rng.Intn(10) == 0: // delete
			e.Delete(key, nil)
			delete(flat, key)
		default:
			val := fmt.Sprintf("v%d", step)
			e.Put(key, []byte(val), nil)
			flat[key] = val
		}
		switch {
		case step%503 == 0:
			if err := e.Flush(); err != nil {
				t.Fatalf("step %d: flush: %v", step, err)
			}
			checkFlat(step)
		case step%701 == 0:
			e.Compact(e.Seq())
			checkFlat(step)
		}
	}
	e.Compact(e.Seq())
	checkFlat(4000)
	// And the arrangement-independence must survive a restart: reopen
	// and compare the flat view against what the manifest restored.
	dir := e.opts.Dir
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	e2 := openTest(t, Options{Dir: dir, MemtableBytes: 1 << 10, BlockBytes: 256})
	got := e2.Scan("", "", 0)
	if len(got) != len(flat) {
		t.Fatalf("after reopen: scan has %d keys, flat model %d", len(got), len(flat))
	}
	for _, p := range got {
		if want := flat[p.Key]; string(p.Version.Value) != want {
			t.Fatalf("after reopen: key %q = %q, flat model %q", p.Key, p.Version.Value, want)
		}
	}
}
