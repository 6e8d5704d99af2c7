// Package enginetest is the storage.Engine conformance suite. Every
// engine implementation (the in-memory KV, the disk-resident LSM tree)
// runs the same suite, so the replication layers above can treat the
// interface contract as load-bearing: identical sequence assignment,
// identical visibility rules for tombstones and snapshots, identical
// scan ordering and bounds.
//
// The suite distinguishes the *portable* contract from KV-specific
// behavior. In particular, Compact is a retention watermark: engines
// must preserve everything a read at or after keepSeq (or an older
// open snapshot) can observe, but HOW eagerly obsolete versions and
// purged tombstones disappear is engine-specific — KV drops them
// synchronously, the LSM tree drops them at the next merge. The
// random model test therefore compares live views only once Compact
// enters the mix.
package enginetest

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// Factory opens a fresh empty engine for one (sub)test. Cleanup is the
// factory's job (t.Cleanup / t.TempDir).
type Factory func(t *testing.T) storage.Engine

// Flusher is an engine with a volatile level it can write out (the LSM
// memtable). The suite reads back across the flush when the factory's
// engine is one.
type Flusher interface{ Flush() error }

// Reopener is an engine that can be closed and opened again over the
// state it persisted. The suite reads back across the reopen when the
// factory's engine is one.
type Reopener interface {
	Reopen(t *testing.T) storage.Engine
}

// Run exercises the full Engine contract against engines built by
// factory.
func Run(t *testing.T, factory Factory) {
	t.Run("BasicVisibility", func(t *testing.T) { testBasicVisibility(t, factory) })
	t.Run("ViewLendsWhatGetReturns", func(t *testing.T) { testView(t, factory) })
	t.Run("EmptyValueStaysEmpty", func(t *testing.T) { testEmptyValue(t, factory) })
	t.Run("ScanBoundsAndLimit", func(t *testing.T) { testScanBoundsAndLimit(t, factory) })
	t.Run("SnapshotIsolation", func(t *testing.T) { testSnapshotIsolation(t, factory) })
	t.Run("SnapshotSurvivesCompact", func(t *testing.T) { testSnapshotSurvivesCompact(t, factory) })
	t.Run("RandomVsModel", func(t *testing.T) { testRandomVsModel(t, factory, false) })
	t.Run("RandomVsModelWithCompact", func(t *testing.T) { testRandomVsModel(t, factory, true) })
}

func testBasicVisibility(t *testing.T, factory Factory) {
	e := factory(t)
	if got := e.Seq(); got != 0 {
		t.Fatalf("fresh engine Seq() = %d, want 0", got)
	}
	s1 := e.Put("a", []byte("v1"), nil)
	s2 := e.Put("a", []byte("v2"), nil)
	s3 := e.Put("b", []byte("w1"), nil)
	if s1 != 1 || s2 != 2 || s3 != 3 {
		t.Fatalf("seqs = %d,%d,%d, want 1,2,3", s1, s2, s3)
	}
	if got := e.Seq(); got != 3 {
		t.Fatalf("Seq() = %d, want 3", got)
	}

	v, ok := e.Get("a")
	if !ok || string(v.Value) != "v2" || v.Seq != s2 {
		t.Fatalf("Get(a) = %+v, %v; want v2@%d", v, ok, s2)
	}
	if _, ok := e.Get("missing"); ok {
		t.Fatal("Get(missing) = ok")
	}

	// Point-in-time reads walk the version history.
	if v, ok := e.GetAt("a", s1); !ok || string(v.Value) != "v1" {
		t.Fatalf("GetAt(a, %d) = %+v, %v; want v1", s1, v, ok)
	}
	if _, ok := e.GetAt("b", s2); ok {
		t.Fatalf("GetAt(b, %d) visible before its write", s2)
	}

	// Tombstones hide keys from Get/Scan but surface via GetAny/ScanAll.
	s4 := e.Delete("a", nil)
	if _, ok := e.Get("a"); ok {
		t.Fatal("Get(a) visible after delete")
	}
	if v, ok := e.GetAny("a"); !ok || !v.Tombstone || v.Seq != s4 {
		t.Fatalf("GetAny(a) = %+v, %v; want tombstone@%d", v, ok, s4)
	}
	if v, ok := e.GetAt("a", s2); !ok || string(v.Value) != "v2" {
		t.Fatalf("GetAt(a, %d) after delete = %+v, %v; want v2", s2, v, ok)
	}
	if got := e.Len(); got != 1 {
		t.Fatalf("Len() = %d, want 1 (only b live)", got)
	}
	if got := e.VersionCount(); got != 4 {
		t.Fatalf("VersionCount() = %d, want 4", got)
	}

	// nil-value put and empty-value put both round-trip live.
	e.Put("c", nil, nil)
	if v, ok := e.Get("c"); !ok || len(v.Value) != 0 || v.Tombstone {
		t.Fatalf("Get(c) after nil put = %+v, %v", v, ok)
	}
	e.Put("d", []byte{}, nil)
	if v, ok := e.Get("d"); !ok || len(v.Value) != 0 {
		t.Fatalf("Get(d) after empty put = %+v, %v", v, ok)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// testView holds View to Get: the same version, lent once, for a live
// key; no call for a missing or tombstoned one.
func testView(t *testing.T, factory Factory) {
	e := factory(t)
	defer e.Close()
	e.Put("a", []byte("a1"), []byte("m"))
	e.Put("a", []byte("a2"), nil)
	e.Put("b", []byte("b1"), nil)
	e.Delete("b", nil)
	check := func(when string) {
		t.Helper()
		want, _ := e.Get("a")
		calls := 0
		var seq uint64
		var val, meta []byte
		ok := e.View("a", func(v storage.Version) {
			calls++
			seq, val, meta = v.Seq, bytes.Clone(v.Value), bytes.Clone(v.Meta)
		})
		if !ok || calls != 1 || seq != want.Seq || !bytes.Equal(val, want.Value) || meta != nil {
			t.Fatalf("%s: View(a) = %v after %d calls with %q@%d meta %q; Get says %q@%d", when, ok, calls, val, seq, meta, want.Value, want.Seq)
		}
		for _, key := range []string{"b", "missing"} {
			if e.View(key, func(storage.Version) { t.Fatalf("%s: View(%s) called fn", when, key) }) {
				t.Fatalf("%s: View(%s) = true", when, key)
			}
		}
	}
	check("in memory")
	if f, ok := e.(Flusher); ok {
		if err := f.Flush(); err != nil {
			t.Fatal(err)
		}
		check("after flush")
	}
}

// testEmptyValue: a value put empty comes back empty, not nil, wherever
// the engine keeps it — the engine layer distinguishes the two.
func testEmptyValue(t *testing.T, factory Factory) {
	e := factory(t)
	e.Put("empty", []byte{}, nil)
	e.Put("nil", nil, nil)
	check := func(when string) {
		t.Helper()
		if v, ok := e.Get("empty"); !ok || v.Value == nil || len(v.Value) != 0 {
			t.Fatalf("%s: Get(empty) = %#v, %v; want a non-nil empty value", when, v.Value, ok)
		}
		if v, ok := e.Get("nil"); !ok || v.Value != nil {
			t.Fatalf("%s: Get(nil) = %#v, %v; want nil", when, v.Value, ok)
		}
	}
	check("in memory")
	if f, ok := e.(Flusher); ok {
		if err := f.Flush(); err != nil {
			t.Fatal(err)
		}
		check("after flush")
	}
	if r, ok := e.(Reopener); ok {
		e = r.Reopen(t)
		check("after reopen")
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func testScanBoundsAndLimit(t *testing.T, factory Factory) {
	e := factory(t)
	defer e.Close()
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("k%02d", i)
		e.Put(key, []byte(key), nil)
	}
	e.Delete("k05", nil)

	all := e.Scan("", "", 0)
	if len(all) != 19 {
		t.Fatalf("Scan all = %d pairs, want 19", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Key >= all[i].Key {
			t.Fatalf("scan out of order: %q before %q", all[i-1].Key, all[i].Key)
		}
	}
	if withTombs := e.ScanAll("", "", 0); len(withTombs) != 20 {
		t.Fatalf("ScanAll = %d pairs, want 20", len(withTombs))
	}

	// Half-open [lo, hi) with both bounds.
	got := e.Scan("k03", "k07", 0)
	want := []string{"k03", "k04", "k06"} // k05 tombstoned
	if len(got) != len(want) {
		t.Fatalf("Scan[k03,k07) = %d pairs, want %d", len(got), len(want))
	}
	for i, p := range got {
		if p.Key != want[i] {
			t.Fatalf("Scan[k03,k07)[%d] = %q, want %q", i, p.Key, want[i])
		}
	}

	if got := e.Scan("", "", 5); len(got) != 5 || got[0].Key != "k00" {
		t.Fatalf("Scan limit=5 = %d pairs starting %q", len(got), got[0].Key)
	}
	if got := e.Scan("k18", "", 0); len(got) != 2 {
		t.Fatalf("Scan[k18,∞) = %d pairs, want 2", len(got))
	}
	if got := e.Scan("x", "y", 0); len(got) != 0 {
		t.Fatalf("Scan empty range = %d pairs", len(got))
	}
}

func testSnapshotIsolation(t *testing.T, factory Factory) {
	e := factory(t)
	defer e.Close()
	e.Put("a", []byte("old"), nil)
	e.Put("b", []byte("stays"), nil)
	snap := e.OpenSnapshot()
	at := snap.Seq()
	if at != e.Seq() {
		t.Fatalf("snapshot anchored at %d, engine at %d", at, e.Seq())
	}

	e.Put("a", []byte("new"), nil)
	e.Delete("b", nil)
	e.Put("c", []byte("later"), nil)

	if v, ok := snap.Get("a"); !ok || string(v.Value) != "old" {
		t.Fatalf("snap.Get(a) = %+v, %v; want old", v, ok)
	}
	if v, ok := snap.Get("b"); !ok || string(v.Value) != "stays" {
		t.Fatalf("snap.Get(b) = %+v, %v; want stays", v, ok)
	}
	if _, ok := snap.Get("c"); ok {
		t.Fatal("snap.Get(c) sees write after anchor")
	}
	pairs := snap.Scan("", "", 0)
	if len(pairs) != 2 {
		t.Fatalf("snap.Scan = %d pairs, want 2", len(pairs))
	}
	snap.Release()
}

// testSnapshotSurvivesCompact pins the checkpointer contract shared by
// both engines: anchor a snapshot, keep writing, then Compact at the
// anchor — every key's state at the anchor stays readable through the
// snapshot, including keys that were later overwritten or deleted.
func testSnapshotSurvivesCompact(t *testing.T, factory Factory) {
	e := factory(t)
	defer e.Close()
	e.Put("a", []byte("a1"), nil)
	e.Put("a", []byte("a2"), nil)
	e.Put("b", []byte("b1"), nil)
	e.Delete("b", nil)
	snap := e.OpenSnapshot()
	cut := snap.Seq()

	e.Put("a", []byte("a3"), nil)
	e.Put("b", []byte("b2"), nil)
	e.Put("c", []byte("c1"), nil)
	e.Compact(cut)

	if v, ok := snap.Get("a"); !ok || string(v.Value) != "a2" {
		t.Fatalf("snap.Get(a) after compact = %+v, %v; want a2", v, ok)
	}
	if _, ok := snap.Get("b"); ok {
		t.Fatal("snap.Get(b) after compact: tombstoned key visible")
	}
	if _, ok := snap.Get("c"); ok {
		t.Fatal("snap.Get(c) after compact: post-anchor key visible")
	}
	// The live view is untouched by the compaction cut.
	if v, ok := e.Get("a"); !ok || string(v.Value) != "a3" {
		t.Fatalf("Get(a) after compact = %+v, %v; want a3", v, ok)
	}
	if v, ok := e.Get("b"); !ok || string(v.Value) != "b2" {
		t.Fatalf("Get(b) after compact = %+v, %v; want b2", v, ok)
	}
	snap.Release()
}

// testRandomVsModel drives the engine and the in-memory KV (the
// reference model) through an identical random workload and checks
// observable equivalence. Sequence assignment must match exactly, so
// every read can be compared seq-for-seq. With withCompact, Compact
// runs at random cuts and comparisons restrict to the live view plus
// point-in-time reads at or after the newest cut (older reads are
// legitimately engine-dependent after version GC).
func testRandomVsModel(t *testing.T, factory Factory, withCompact bool) {
	e := factory(t)
	defer e.Close()
	model := storage.NewKV()
	rng := rand.New(rand.NewSource(7))
	keyOf := func() string { return fmt.Sprintf("key-%03d", rng.Intn(120)) }
	var maxCut uint64

	const ops = 3000
	for i := 0; i < ops; i++ {
		switch r := rng.Float64(); {
		case r < 0.55:
			key := keyOf()
			val := make([]byte, rng.Intn(64))
			rng.Read(val)
			if got, want := e.Put(key, val, nil), model.Put(key, val, nil); got != want {
				t.Fatalf("op %d: Put seq %d, model %d", i, got, want)
			}
		case r < 0.70:
			key := keyOf()
			if got, want := e.Delete(key, nil), model.Delete(key, nil); got != want {
				t.Fatalf("op %d: Delete seq %d, model %d", i, got, want)
			}
		case r < 0.75 && withCompact:
			cut := model.Seq() - uint64(rng.Intn(10))
			if cut > model.Seq() { // underflow near start
				cut = 0
			}
			if cut > maxCut {
				maxCut = cut
			}
			e.Compact(cut)
			model.Compact(cut)
		case r < 0.85:
			key := keyOf()
			gv, gok := e.Get(key)
			wv, wok := model.Get(key)
			if gok != wok || (gok && (gv.Seq != wv.Seq || !bytes.Equal(gv.Value, wv.Value))) {
				t.Fatalf("op %d: Get(%q) = %+v,%v; model %+v,%v", i, key, gv, gok, wv, wok)
			}
			if !withCompact {
				gv, gok = e.GetAny(key)
				wv, wok = model.GetAny(key)
				if gok != wok || (gok && gv.Seq != wv.Seq) {
					t.Fatalf("op %d: GetAny(%q) = %+v,%v; model %+v,%v", i, key, gv, gok, wv, wok)
				}
			}
		case r < 0.92:
			key := keyOf()
			lo := maxCut
			span := model.Seq() - lo
			at := lo + uint64(rng.Int63n(int64(span)+1))
			gv, gok := e.GetAt(key, at)
			wv, wok := model.GetAt(key, at)
			if gok != wok || (gok && (gv.Seq != wv.Seq || !bytes.Equal(gv.Value, wv.Value))) {
				t.Fatalf("op %d: GetAt(%q, %d) = %+v,%v; model %+v,%v", i, key, at, gv, gok, wv, wok)
			}
		default:
			lo := fmt.Sprintf("key-%03d", rng.Intn(120))
			hi := fmt.Sprintf("key-%03d", rng.Intn(120))
			if hi < lo {
				lo, hi = hi, lo
			}
			limit := rng.Intn(20)
			comparePairs(t, i, "Scan", e.Scan(lo, hi, limit), model.Scan(lo, hi, limit))
			if !withCompact {
				comparePairs(t, i, "ScanAll", e.ScanAll(lo, hi, limit), model.ScanAll(lo, hi, limit))
			}
		}
	}

	// Final full-view equivalence.
	comparePairs(t, ops, "final Scan", e.Scan("", "", 0), model.Scan("", "", 0))
	if got, want := e.Len(), model.Len(); got != want {
		t.Fatalf("final Len() = %d, model %d", got, want)
	}
}

func comparePairs(t *testing.T, op int, what string, got, want []storage.Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("op %d: %s: %d pairs, model %d", op, what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Key != w.Key || g.Version.Seq != w.Version.Seq ||
			g.Version.Tombstone != w.Version.Tombstone ||
			!bytes.Equal(g.Version.Value, w.Version.Value) {
			t.Fatalf("op %d: %s[%d] = %q@%d, model %q@%d", op, what, i,
				g.Key, g.Version.Seq, w.Key, w.Version.Seq)
		}
	}
}
