package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
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
	e.Put("key-007", []byte("rewritten"), nil)
	if err := e.Close(); err != nil { // Close flushes the memtable
		t.Fatalf("Close: %v", err)
	}

	r := openTest(t, Options{Dir: dir, MemtableBytes: 1 << 10})
	if got := r.Len(); got != n {
		t.Fatalf("reopened Len() = %d, want %d", got, n)
	}
	if v, ok := r.Get("key-042"); !ok || string(v) != "val-42" {
		t.Fatalf("reopened Get(key-042) = %q, %v", v, ok)
	}
	if v, ok := r.Get("key-007"); !ok || string(v) != "rewritten" {
		t.Fatalf("reopened Get(key-007) = %q, %v; want the rewrite", v, ok)
	}
	// Writes after the reopen outrank what it restored.
	r.Put("key-042", []byte("after"), nil)
	if v, ok := r.Get("key-042"); !ok || string(v) != "after" {
		t.Fatalf("Get(key-042) after a post-reopen Put = %q, %v", v, ok)
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
	if _, err := writeTable(orphan, []storage.Pair{{Key: "ghost", Value: []byte("boo")}}, 0, 0); err != nil {
		t.Fatalf("write orphan: %v", err)
	}

	r := openTest(t, Options{Dir: dir})
	if _, ok := r.Get("ghost"); ok {
		t.Fatal("orphan table contents visible after reopen")
	}
	if v, ok := r.Get("real"); !ok || string(v) != "x" {
		t.Fatalf("Get(real) = %q, %v", v, ok)
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
	// block per run for limit 1, however large the tree, and what it
	// returns is each key's newest value.
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
	e.Put("k-0001", []byte("new"), nil)
	got = e.Scan("k-0001", "", 3)
	if len(got) != 3 || string(got[0].Value) != "new" || got[2].Key != "k-0003" {
		t.Fatalf("Scan limit 3 after a rewrite = %v, want k-0001=new..k-0003", got)
	}
}

func TestTierCompactionBoundsTableCount(t *testing.T) {
	e := openTest(t, Options{MemtableBytes: 1 << 10, MaxTablesPerTier: 4})
	newest := make(map[string]string)
	for i := 0; i < 2000; i++ {
		key, val := fmt.Sprintf("key-%05d", i%300), fmt.Sprintf("value-%d", i)
		e.Put(key, []byte(val), nil)
		newest[key] = val
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
	// Merges must not lose data: every key keeps its newest value.
	for key, want := range newest {
		if v, ok := e.Get(key); !ok || string(v) != want {
			t.Fatalf("Get(%q) = %q, %v across compactions; want %q", key, v, ok, want)
		}
	}
}

// TestRewrittenKeyCostsOneBlockRead: a key every run holds is read from
// the newest run alone. Recency is the run's position, so the lookup
// stops at the first run that has the key instead of consulting all.
func TestRewrittenKeyCostsOneBlockRead(t *testing.T) {
	e := openTest(t, Options{MaxTablesPerTier: 100})
	for round := 0; round < 4; round++ {
		e.Put("hot", []byte(fmt.Sprintf("v%d", round)), nil)
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	before := e.Stats()
	if before.SSTables != 4 {
		t.Fatalf("want 4 runs each holding the key, got %d", before.SSTables)
	}
	const gets = 10
	for i := 0; i < gets; i++ {
		if v, ok := e.Get("hot"); !ok || string(v) != "v3" {
			t.Fatalf("Get(hot) = %q, %v; want v3", v, ok)
		}
	}
	if reads := e.Stats().BlockReads - before.BlockReads; reads != gets {
		t.Fatalf("%d Gets of a key in %d runs read %d blocks, want one each", gets, before.SSTables, reads)
	}
}

// TestMergeKeepsNewestValueOfAMiddleRun builds runs whose tiers go
// small, big, small: the two small runs share a tier but are not
// adjacent, and the big one between them rewrites a key the older small
// run holds. Only adjacent runs may merge, into their own slot; a merge
// of the two small runs would make the older value look newer.
func TestMergeKeepsNewestValueOfAMiddleRun(t *testing.T) {
	e := openTest(t, Options{MemtableBytes: 8 << 20, MaxTablesPerTier: 2})
	model := make(map[string]string)
	put := func(key, val string) {
		e.Put(key, []byte(val), nil)
		model[key] = val
	}
	flush := func(what string) {
		t.Helper()
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		if v, ok := e.Get("k"); !ok || string(v) != "new" {
			t.Fatalf("after %s: Get(k) = %q, %v; want new", what, v, ok)
		}
		for _, p := range e.Scan("", "", 0) {
			if string(p.Value) != model[p.Key] {
				t.Fatalf("after %s: %s = %q, want %q", what, p.Key, p.Value, model[p.Key])
			}
		}
	}
	put("k", "old")
	put("small-a", "a")
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	put("k", "new")
	for i := 0; i < 100; i++ { // ~100 KiB: one tier above the small runs
		put(fmt.Sprintf("big-%03d", i), string(bytes.Repeat([]byte{'b'}, 1<<10)))
	}
	flush("the big run")
	for round := 0; round < 6; round++ {
		put(fmt.Sprintf("small-%d", round), "s")
		flush(fmt.Sprintf("small run %d", round))
	}
	st := e.Stats()
	if st.Compactions == 0 {
		t.Fatal("no merges ran")
	}
	if tiers := []int{tierOf(e.tables[0].size), tierOf(e.tables[1].size)}; tiers[0] == tiers[1] {
		t.Fatalf("the oldest two runs share tier %d: the layout this test needs did not form", tiers[0])
	}
	if len(e.tables) != 3 {
		t.Fatalf("%d runs, want the oldest small one, the big one and the merged small ones", len(e.tables))
	}
}

// TestFailedFlushRetriesAfterAnotherThreshold: a flush that fails keeps
// the memtable and is retried once the memtable has grown by another
// threshold's worth, not on every later Put.
func TestFailedFlushRetriesAfterAnotherThreshold(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, Options{Dir: dir, MemtableBytes: 1 << 10})
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	value := bytes.Repeat([]byte{'v'}, 100)
	for i := 0; i < 15; i++ { // past the threshold once, not twice
		e.Put(fmt.Sprintf("k%02d", i), value, nil)
	}
	st := e.Stats()
	if st.FlushErrors != 1 || st.Flushes != 0 {
		t.Fatalf("%d puts past the threshold: %d failed flushes and %d flushes, want 1 and 0", 15-9, st.FlushErrors, st.Flushes)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("a failed flush recreated the directory: %v", err)
	}
	// The directory is back: the next retry succeeds and keeps every key.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 15; i < 25; i++ {
		e.Put(fmt.Sprintf("k%02d", i), value, nil)
	}
	if st := e.Stats(); st.FlushErrors != 1 || st.Flushes != 1 || st.MemtableBytes >= 1<<10 {
		t.Fatalf("after the directory came back: %+v, want one flush", st)
	}
	if got := e.Len(); got != 25 {
		t.Fatalf("Len() = %d, want 25", got)
	}
}

// TestFailedTableWriteLeavesNoFile: a table the engine fails to finish
// writing is removed, so a full disk does not get fuller.
func TestFailedTableWriteLeavesNoFile(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to write to")
	}
	dir := t.TempDir()
	e := openTest(t, Options{Dir: dir})
	e.Put("k", []byte("v"), nil)
	path := filepath.Join(dir, tableFileName(e.nextID))
	if err := os.Symlink("/dev/full", path); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err == nil {
		t.Fatal("a flush onto a full device succeeded")
	}
	if _, err := os.Lstat(path); !os.IsNotExist(err) {
		t.Fatalf("the failed table is still on disk (lstat err = %v)", err)
	}
	if st := e.Stats(); st.FlushErrors != 1 {
		t.Fatalf("FlushErrors = %d, want 1", st.FlushErrors)
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if v, ok := e.Get("k"); !ok || string(v) != "v" {
		t.Fatalf("Get(k) after the retried flush = %q, %v", v, ok)
	}
}

// TestCompactionPreservesFlatScanEquivalence is the compaction
// property test: however the values are physically arranged — memtable,
// many small tables, or freshly merged runs — the view must equal a flat
// map replaying the same operations. A random workload with interleaved
// flushes drives the engine through every arrangement; after each flush
// (and the merges it triggers) the full scan, a handful of point gets,
// and Len must all match the model exactly.
func TestCompactionPreservesFlatScanEquivalence(t *testing.T) {
	e := openTest(t, Options{MemtableBytes: 1 << 10, BlockBytes: 256, MaxTablesPerTier: 2})
	rng := rand.New(rand.NewSource(11))
	flat := make(map[string]string)

	checkFlat := func(step int, e *Engine) {
		t.Helper()
		got := e.Scan("", "", 0)
		if len(got) != len(flat) || e.Len() != len(flat) {
			t.Fatalf("step %d: scan has %d keys, Len %d, flat model %d", step, len(got), e.Len(), len(flat))
		}
		for _, p := range got {
			if want := flat[p.Key]; string(p.Value) != want {
				t.Fatalf("step %d: key %q = %q, flat model %q", step, p.Key, p.Value, want)
			}
		}
		for i := 0; i < 5; i++ {
			key := fmt.Sprintf("p-%02d", rng.Intn(70))
			v, ok := e.Get(key)
			want, wok := flat[key]
			if ok != wok || string(v) != want {
				t.Fatalf("step %d: Get(%q) = %q, %v; flat model %q, %v", step, key, v, ok, want, wok)
			}
		}
	}

	const keys = 60
	for step := 0; step < 4000; step++ {
		key := fmt.Sprintf("p-%02d", rng.Intn(keys))
		val := fmt.Sprintf("v%d", step)
		e.Put(key, []byte(val), nil)
		flat[key] = val
		if step%503 == 0 {
			if err := e.Flush(); err != nil {
				t.Fatalf("step %d: flush: %v", step, err)
			}
		}
		if step%301 == 0 {
			checkFlat(step, e)
		}
	}
	if e.Stats().Compactions == 0 {
		t.Fatal("no merges ran")
	}
	checkFlat(4000, e)
	// And the arrangement-independence must survive a restart: reopen
	// and compare the flat view against what the manifest restored.
	dir := e.opts.Dir
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	checkFlat(4001, openTest(t, Options{Dir: dir, MemtableBytes: 1 << 10, BlockBytes: 256}))
}
