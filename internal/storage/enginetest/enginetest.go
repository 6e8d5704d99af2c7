// Package enginetest is the storage.Engine conformance suite. Every
// engine implementation (the in-memory KV, the disk-resident LSM tree)
// runs the same suite, so the replication layers above can treat the
// interface contract as load-bearing: a Put replaces the key's value,
// reads see the newest one wherever the engine keeps it, scans are
// ordered and bounded, and what an engine persists survives a reopen.
package enginetest

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
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
	t.Run("RandomVsModel", func(t *testing.T) { testRandomVsModel(t, factory) })
}

// afterFlushAndReopen runs check on e as written, after a flush if e is
// a Flusher, and after a reopen if it is a Reopener, and returns the
// engine it ended with.
func afterFlushAndReopen(t *testing.T, e storage.Engine, check func(when string, e storage.Engine)) storage.Engine {
	t.Helper()
	check("in memory", e)
	if f, ok := e.(Flusher); ok {
		if err := f.Flush(); err != nil {
			t.Fatal(err)
		}
		check("after flush", e)
	}
	if r, ok := e.(Reopener); ok {
		e = r.Reopen(t)
		check("after reopen", e)
	}
	return e
}

func testBasicVisibility(t *testing.T, factory Factory) {
	e := factory(t)
	e.Put("a", []byte("v1"), nil)
	e.Put("a", []byte("v2"), nil)
	e.Put("b", []byte("w1"), nil)
	e = afterFlushAndReopen(t, e, func(when string, e storage.Engine) {
		t.Helper()
		if v, ok := e.Get("a"); !ok || string(v) != "v2" {
			t.Fatalf("%s: Get(a) = %q, %v; want v2", when, v, ok)
		}
		if _, ok := e.Get("missing"); ok {
			t.Fatalf("%s: Get(missing) = ok", when)
		}
		if got := e.Len(); got != 2 {
			t.Fatalf("%s: Len() = %d, want 2", when, got)
		}
	})
	// A write after the flush outranks the flushed value.
	e.Put("a", []byte("v3"), nil)
	if v, ok := e.Get("a"); !ok || string(v) != "v3" {
		t.Fatalf("Get(a) after an overwrite of a flushed value = %q, %v; want v3", v, ok)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// testView holds View to Get: the same value, lent once, for a stored
// key; no call for a missing one.
func testView(t *testing.T, factory Factory) {
	e := factory(t)
	e.Put("a", []byte("a1"), nil)
	e.Put("a", []byte("a2"), nil)
	e = afterFlushAndReopen(t, e, func(when string, e storage.Engine) {
		t.Helper()
		want, _ := e.Get("a")
		calls := 0
		var val []byte
		ok := e.View("a", func(v []byte) {
			calls++
			val = bytes.Clone(v)
		})
		if !ok || calls != 1 || !bytes.Equal(val, want) {
			t.Fatalf("%s: View(a) = %v after %d calls with %q; Get says %q", when, ok, calls, val, want)
		}
		if e.View("missing", func([]byte) { t.Fatalf("%s: View(missing) called fn", when) }) {
			t.Fatalf("%s: View(missing) = true", when)
		}
	})
	e.Close()
}

// testEmptyValue: a key put with an empty value is present, with a value
// of length 0, wherever the engine keeps it.
func testEmptyValue(t *testing.T, factory Factory) {
	e := factory(t)
	e.Put("empty", []byte{}, nil)
	e = afterFlushAndReopen(t, e, func(when string, e storage.Engine) {
		t.Helper()
		if v, ok := e.Get("empty"); !ok || len(v) != 0 {
			t.Fatalf("%s: Get(empty) = %#v, %v; want a present empty value", when, v, ok)
		}
		if !e.View("empty", func(v []byte) {
			if len(v) != 0 {
				t.Fatalf("%s: View(empty) lent %q", when, v)
			}
		}) {
			t.Fatalf("%s: View(empty) = false", when)
		}
	})
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func testScanBoundsAndLimit(t *testing.T, factory Factory) {
	e := factory(t)
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("k%02d", i)
		e.Put(key, []byte(key), nil)
	}
	e = afterFlushAndReopen(t, e, func(when string, e storage.Engine) {
		t.Helper()
		all := e.Scan("", "", 0)
		if len(all) != 20 {
			t.Fatalf("%s: Scan all = %d pairs, want 20", when, len(all))
		}
		for i := 1; i < len(all); i++ {
			if all[i-1].Key >= all[i].Key {
				t.Fatalf("%s: scan out of order: %q before %q", when, all[i-1].Key, all[i].Key)
			}
		}
		// Half-open [lo, hi) with both bounds.
		if got := keysOf(e.Scan("k03", "k06", 0)); fmt.Sprint(got) != "[k03 k04 k05]" {
			t.Fatalf("%s: Scan[k03,k06) = %v", when, got)
		}
		if got := e.Scan("", "", 5); len(got) != 5 || got[0].Key != "k00" || got[4].Key != "k04" {
			t.Fatalf("%s: Scan limit=5 = %v", when, keysOf(got))
		}
		if got := e.Scan("k07", "", 2); len(got) != 2 || got[0].Key != "k07" || string(got[1].Value) != "k08" {
			t.Fatalf("%s: Scan[k07,∞) limit=2 = %v", when, keysOf(got))
		}
		if got := e.Scan("k18", "", 0); len(got) != 2 {
			t.Fatalf("%s: Scan[k18,∞) = %d pairs, want 2", when, len(got))
		}
		if got := e.Scan("x", "y", 0); len(got) != 0 {
			t.Fatalf("%s: Scan empty range = %d pairs", when, len(got))
		}
	})
	e.Close()
}

func keysOf(pairs []storage.Pair) []string {
	keys := make([]string, len(pairs))
	for i, p := range pairs {
		keys[i] = p.Key
	}
	return keys
}

// testRandomVsModel drives the engine and a flat map through an identical
// random workload of puts, point reads and limited scans, then compares
// the full view across a flush and a reopen.
func testRandomVsModel(t *testing.T, factory Factory) {
	e := factory(t)
	model := make(map[string][]byte)
	rng := rand.New(rand.NewSource(7))
	keyOf := func() string { return fmt.Sprintf("key-%03d", rng.Intn(120)) }
	modelScan := func(lo, hi string, limit int) []storage.Pair {
		var out []storage.Pair
		for k, v := range model {
			if k >= lo && (hi == "" || k < hi) {
				out = append(out, storage.Pair{Key: k, Value: v})
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
		if limit > 0 && len(out) > limit {
			out = out[:limit]
		}
		return out
	}

	const ops = 3000
	for i := 0; i < ops; i++ {
		switch r := rng.Float64(); {
		case r < 0.6:
			key := keyOf()
			val := make([]byte, 1+rng.Intn(64))
			rng.Read(val)
			e.Put(key, val, nil)
			model[key] = val
		case r < 0.85:
			key := keyOf()
			got, ok := e.Get(key)
			want, wok := model[key]
			if ok != wok || !bytes.Equal(got, want) {
				t.Fatalf("op %d: Get(%q) = %x,%v; model %x,%v", i, key, got, ok, want, wok)
			}
		default:
			lo, hi := keyOf(), keyOf()
			if hi < lo {
				lo, hi = hi, lo
			}
			limit := rng.Intn(20)
			comparePairs(t, fmt.Sprintf("op %d: Scan", i), e.Scan(lo, hi, limit), modelScan(lo, hi, limit))
		}
	}

	e = afterFlushAndReopen(t, e, func(when string, e storage.Engine) {
		t.Helper()
		comparePairs(t, when+": final Scan", e.Scan("", "", 0), modelScan("", "", 0))
		if got := e.Len(); got != len(model) {
			t.Fatalf("%s: Len() = %d, model %d", when, got, len(model))
		}
	})
	e.Close()
}

func comparePairs(t *testing.T, what string, got, want []storage.Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, model %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("%s[%d] = %q=%x, model %q=%x", what, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
}
