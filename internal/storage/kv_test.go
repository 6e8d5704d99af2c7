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
	kv.Put("k", []byte("v1"), nil)
	if v, ok := kv.Get("k"); !ok || string(v) != "v1" {
		t.Fatalf("Get = %q ok=%v, want v1", v, ok)
	}
	v2 := []byte("v2-longer")
	kv.Put("k", v2, nil)
	v, _ := kv.Get("k")
	if string(v) != "v2-longer" {
		t.Fatalf("Get after overwrite = %q", v)
	}
	// Values are immutable: Get hands out the stored slice, not a copy.
	if &v[0] != &v2[0] {
		t.Fatal("Get copied the stored value")
	}
	if got, want := kv.Bytes(), len("k")+len(v2); got != want || kv.Len() != 1 {
		t.Fatalf("Bytes() = %d, Len() = %d after an overwrite; want %d, 1", got, kv.Len(), want)
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
		if p.Key != want[i] || string(p.Value) != want[i] {
			t.Fatalf("scan[%d] = %s=%s, want %s", i, p.Key, p.Value, want[i])
		}
	}
	if got := kv.Scan("", "", 2); len(got) != 2 {
		t.Fatalf("limited scan returned %d, want 2", len(got))
	}
	if got := kv.Scan("", "", 0); len(got) != 5 {
		t.Fatalf("full scan returned %d, want 5", len(got))
	}
}

// Scan sizes its result from the two bounds and the limit: one
// allocation, however many pairs, and none for an empty or inverted range.
func TestKVScanAllocatesOnce(t *testing.T) {
	kv := NewKV()
	for i := 0; i < 1000; i++ {
		kv.Put(fmt.Sprintf("k%04d", i), []byte{byte(i)}, nil)
	}
	for _, tc := range []struct {
		start, end string
		limit      int
		pairs      int
		allocs     float64
	}{
		{"", "", 0, 1000, 1},
		{"k0100", "k0300", 0, 200, 1},
		{"k0100", "", 50, 50, 1},
		{"k0300", "k0100", 0, 0, 0},
		{"z", "", 0, 0, 0},
	} {
		if got := kv.Scan(tc.start, tc.end, tc.limit); len(got) != tc.pairs || cap(got) != tc.pairs {
			t.Fatalf("Scan(%q, %q, %d) = %d pairs in a slice of %d, want %d", tc.start, tc.end, tc.limit, len(got), cap(got), tc.pairs)
		}
		if a := testing.AllocsPerRun(20, func() { kv.Scan(tc.start, tc.end, tc.limit) }); a != tc.allocs {
			t.Fatalf("Scan(%q, %q, %d) allocates %.0f times, want %.0f", tc.start, tc.end, tc.limit, a, tc.allocs)
		}
	}
}

// TestKVQuickLatestWins: after any interleaving of puts per key, Get
// returns exactly the last put's value.
func TestKVQuickLatestWins(t *testing.T) {
	type op struct {
		key string
		val byte
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, r *rand.Rand) {
			n := 1 + r.Intn(40)
			ops := make([]op, n)
			for i := range ops {
				ops[i] = op{key: fmt.Sprintf("k%d", r.Intn(5)), val: byte(r.Intn(256))}
			}
			args[0] = reflect.ValueOf(ops)
		},
	}
	prop := func(ops []op) bool {
		kv := NewKV()
		model := map[string][]byte{}
		for _, o := range ops {
			kv.Put(o.key, []byte{o.val}, nil)
			model[o.key] = []byte{o.val}
		}
		for k, want := range model {
			v, ok := kv.Get(k)
			if !ok || v[0] != want[0] {
				return false
			}
		}
		return kv.Len() == len(model)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
