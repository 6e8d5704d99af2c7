package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestKVGetPut(t *testing.T) {
	kv := NewKV()
	if _, ok := kv.Get("k"); ok {
		t.Fatal("empty store returned a value")
	}
	s1 := kv.Put("k", []byte("v1"), nil)
	v, ok := kv.Get("k")
	if !ok || string(v.Value) != "v1" || v.Seq != s1 {
		t.Fatalf("Get = %+v ok=%v, want v1@%d", v, ok, s1)
	}
	s2 := kv.Put("k", []byte("v2"), []byte("meta"))
	v, _ = kv.Get("k")
	if string(v.Value) != "v2" || v.Seq != s2 || string(v.Meta) != "meta" {
		t.Fatalf("Get after overwrite = %+v", v)
	}
	if s2 <= s1 {
		t.Fatal("sequence numbers must increase")
	}
}

func TestKVDelete(t *testing.T) {
	kv := NewKV()
	kv.Put("k", []byte("v"), nil)
	kv.Delete("k", nil)
	if _, ok := kv.Get("k"); ok {
		t.Fatal("deleted key still visible")
	}
	v, ok := kv.GetAny("k")
	if !ok || !v.Tombstone {
		t.Fatal("GetAny must expose the tombstone")
	}
	if kv.Len() != 0 {
		t.Fatalf("Len = %d, want 0", kv.Len())
	}
}

func TestKVSnapshotIsolation(t *testing.T) {
	kv := NewKV()
	kv.Put("a", []byte("1"), nil)
	snap := kv.Snapshot()
	kv.Put("a", []byte("2"), nil)
	kv.Put("b", []byte("3"), nil)
	kv.Delete("a", nil)

	v, ok := snap.Get("a")
	if !ok || string(v.Value) != "1" {
		t.Fatalf("snapshot saw %+v, want the value at snapshot time", v)
	}
	if _, ok := snap.Get("b"); ok {
		t.Fatal("snapshot saw a later write")
	}
	if got := snap.Scan("", "", 0); len(got) != 1 || got[0].Key != "a" {
		t.Fatalf("snapshot scan = %v, want [a]", got)
	}
	// Live view is unaffected.
	if _, ok := kv.Get("a"); ok {
		t.Fatal("live view should see the delete")
	}
}

func TestKVGetAt(t *testing.T) {
	kv := NewKV()
	s1 := kv.Put("k", []byte("1"), nil)
	s2 := kv.Put("k", []byte("2"), nil)
	if v, ok := kv.GetAt("k", s1); !ok || string(v.Value) != "1" {
		t.Fatalf("GetAt(s1) = %+v", v)
	}
	if v, ok := kv.GetAt("k", s2); !ok || string(v.Value) != "2" {
		t.Fatalf("GetAt(s2) = %+v", v)
	}
	if _, ok := kv.GetAt("k", 0); ok {
		t.Fatal("GetAt before first write returned a value")
	}
}

func TestKVScanOrderAndBounds(t *testing.T) {
	kv := NewKV()
	for _, k := range []string{"d", "a", "c", "b", "e"} {
		kv.Put(k, []byte(k), nil)
	}
	got := kv.Scan("b", "e", 0)
	want := []string{"b", "c", "d"}
	if len(got) != len(want) {
		t.Fatalf("scan returned %d pairs, want %d", len(got), len(want))
	}
	for i, p := range got {
		if p.Key != want[i] {
			t.Fatalf("scan[%d] = %s, want %s", i, p.Key, want[i])
		}
	}
	if got := kv.Scan("", "", 2); len(got) != 2 {
		t.Fatalf("limited scan returned %d, want 2", len(got))
	}
	if got := kv.Scan("", "", 0); len(got) != 5 {
		t.Fatalf("full scan returned %d, want 5", len(got))
	}
}

func TestKVScanSkipsTombstonesScanAllKeepsThem(t *testing.T) {
	kv := NewKV()
	kv.Put("a", []byte("1"), nil)
	kv.Put("b", []byte("2"), nil)
	kv.Delete("a", nil)
	if got := kv.Scan("", "", 0); len(got) != 1 || got[0].Key != "b" {
		t.Fatalf("Scan = %v, want [b]", got)
	}
	got := kv.ScanAll("", "", 0)
	if len(got) != 2 || !got[0].Version.Tombstone {
		t.Fatalf("ScanAll = %v, want tombstone for a", got)
	}
}

func TestKVCompact(t *testing.T) {
	kv := NewKV()
	kv.Put("k", []byte("1"), nil)
	kv.Put("k", []byte("2"), nil)
	s3 := kv.Put("k", []byte("3"), nil)
	kv.Put("dead", []byte("x"), nil)
	sDead := kv.Delete("dead", nil)

	kv.Compact(sDead)
	if kv.VersionCount() != 1 {
		t.Fatalf("VersionCount after compact = %d, want 1", kv.VersionCount())
	}
	if v, ok := kv.Get("k"); !ok || v.Seq != s3 {
		t.Fatalf("latest version lost by compaction: %+v ok=%v", v, ok)
	}
	if _, ok := kv.GetAny("dead"); ok {
		t.Fatal("fully tombstoned key should be purged")
	}
	// Key index stays consistent with the version map.
	if got := kv.Scan("", "", 0); len(got) != 1 || got[0].Key != "k" {
		t.Fatalf("scan after compact = %v", got)
	}
}

func TestKVCompactPreservesSnapshotPoint(t *testing.T) {
	kv := NewKV()
	kv.Put("k", []byte("1"), nil)
	s2 := kv.Put("k", []byte("2"), nil)
	kv.Put("k", []byte("3"), nil)
	kv.Compact(s2)
	if v, ok := kv.GetAt("k", s2); !ok || string(v.Value) != "2" {
		t.Fatalf("version at keepSeq lost: %+v ok=%v", v, ok)
	}
}

// TestKVCompactKeepsOpenSnapshotView pins the contract the durability
// layer's checkpointer relies on: it captures kv.Seq() while writers
// are paused, later calls Compact(thatSeq), and any snapshot taken at
// or after that seq must keep reading its full anchored view — no
// version visible to an open snapshot may be dropped.
func TestKVCompactKeepsOpenSnapshotView(t *testing.T) {
	kv := NewKV()
	kv.Put("a", []byte("a1"), nil)
	kv.Put("b", []byte("b1"), nil)
	kv.Put("a", []byte("a2"), nil)
	kv.Delete("b", nil)
	snap := kv.Snapshot()
	ckptSeq := snap.Seq() // the seq a checkpoint would record

	// Writes after the checkpoint cut, then compaction at the cut.
	kv.Put("a", []byte("a3"), nil)
	kv.Put("b", []byte("b2"), nil)
	kv.Compact(ckptSeq)

	if v, ok := snap.Get("a"); !ok || string(v.Value) != "a2" {
		t.Fatalf("snapshot lost a@%d after Compact(%d): %+v ok=%v", ckptSeq, ckptSeq, v, ok)
	}
	if _, ok := snap.Get("b"); ok {
		t.Fatalf("snapshot sees b, but it was deleted at the snapshot point")
	}
	if got := snap.Scan("", "", 0); len(got) != 1 || got[0].Key != "a" || string(got[0].Version.Value) != "a2" {
		t.Fatalf("snapshot scan after compact = %v, want only a=a2", got)
	}
	// The post-checkpoint state is untouched.
	if v, ok := kv.Get("a"); !ok || string(v.Value) != "a3" {
		t.Fatalf("head version of a lost: %+v ok=%v", v, ok)
	}
	if v, ok := kv.Get("b"); !ok || string(v.Value) != "b2" {
		t.Fatalf("head version of b lost: %+v ok=%v", v, ok)
	}
	// Exactly what the cut needs survives: a2 and b's tombstone (each
	// the newest version at ckptSeq — the tombstone is what lets the
	// snapshot keep seeing b as deleted) plus the a3/b2 heads. a1 is
	// gone.
	if kv.VersionCount() != 4 {
		t.Fatalf("VersionCount = %d, want 4 (a2 + b-tombstone at the cut, a3+b2 heads)", kv.VersionCount())
	}
}

// TestKVQuickLatestWins: after any interleaving of puts and deletes per
// key, Get returns exactly the last non-delete operation's value (or
// nothing if the last op was a delete).
func TestKVQuickLatestWins(t *testing.T) {
	type op struct {
		key string
		del bool
		val byte
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, r *rand.Rand) {
			n := 1 + r.Intn(40)
			ops := make([]op, n)
			for i := range ops {
				ops[i] = op{
					key: fmt.Sprintf("k%d", r.Intn(5)),
					del: r.Intn(4) == 0,
					val: byte(r.Intn(256)),
				}
			}
			args[0] = reflect.ValueOf(ops)
		},
	}
	prop := func(ops []op) bool {
		kv := NewKV()
		model := map[string][]byte{}
		for _, o := range ops {
			if o.del {
				kv.Delete(o.key, nil)
				delete(model, o.key)
			} else {
				kv.Put(o.key, []byte{o.val}, nil)
				model[o.key] = []byte{o.val}
			}
		}
		for k, want := range model {
			v, ok := kv.Get(k)
			if !ok || v.Value[0] != want[0] {
				return false
			}
		}
		return kv.Len() == len(model)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
