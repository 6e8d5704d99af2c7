package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// TestMerkleQuickSetEquivalence: two trees receiving the same final
// key→version mapping — through any interleavings, re-updates, and
// removals along the way — end with equal roots; trees with different
// final mappings end with different roots.
func TestMerkleQuickSetEquivalence(t *testing.T) {
	type op struct {
		key    uint8
		ver    uint8
		remove bool
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, r *rand.Rand) {
			mk := func() []op {
				ops := make([]op, r.Intn(60))
				for i := range ops {
					ops[i] = op{key: uint8(r.Intn(10)), ver: uint8(r.Intn(8)), remove: r.Intn(5) == 0}
				}
				return ops
			}
			args[0] = reflect.ValueOf(mk())
			args[1] = reflect.ValueOf(mk())
		},
	}
	final := func(ops []op) map[uint8]uint8 {
		m := map[uint8]uint8{}
		for _, o := range ops {
			if o.remove {
				delete(m, o.key)
			} else {
				m[o.key] = o.ver
			}
		}
		return m
	}
	apply := func(ops []op) *Merkle {
		mt := NewMerkle(6)
		for _, o := range ops {
			k := fmt.Sprintf("key-%d", o.key)
			if o.remove {
				mt.Remove(k)
			} else {
				mt.Update(k, uint64(o.ver))
			}
		}
		return mt
	}
	prop := func(a, b []op) bool {
		same := reflect.DeepEqual(final(a), final(b))
		equal := apply(a).RootHash() == apply(b).RootHash()
		return same == equal
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestKVQuickScanMatchesSortedModel: Scan over any range equals the
// model set's keys filtered to the range and sorted.
func TestKVQuickScanMatchesSortedModel(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, r *rand.Rand) {
			keys := make([]byte, r.Intn(50))
			for i := range keys {
				keys[i] = byte('a' + r.Intn(8))
			}
			args[0] = reflect.ValueOf(keys)
			args[1] = reflect.ValueOf(byte('a' + r.Intn(8)))
			args[2] = reflect.ValueOf(byte('a' + r.Intn(10)))
		},
	}
	prop := func(keys []byte, lo, hi byte) bool {
		kv := NewKV()
		model := map[string]bool{}
		for _, key := range keys {
			k := string(key)
			kv.Put(k, []byte{key}, nil)
			model[k] = true
		}
		start, end := string(lo), string(hi)
		if end < start {
			start, end = end, start
		}
		var want []string
		for k := range model {
			if k >= start && (end == "" || k < end) {
				want = append(want, k)
			}
		}
		sort.Strings(want)
		got := kv.Scan(start, end, 0)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Key != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestKVConcurrentAccess exercises the engine's thread safety under the
// race detector: parallel writers, readers and scanners.
func TestKVConcurrentAccess(t *testing.T) {
	kv := NewKV()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				kv.Put(fmt.Sprintf("k%d", i%20), []byte{byte(w), byte(i)}, nil)
			}
		}()
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				kv.Get(fmt.Sprintf("k%d", i%20))
				kv.View("k3", func([]byte) {})
				if i%11 == 0 {
					kv.Scan("", "", 10)
				}
			}
		}()
	}
	wg.Wait()
	if kv.Len() != 20 || len(kv.Scan("", "", 0)) != 20 {
		t.Fatalf("Len() = %d after writes to 20 keys", kv.Len())
	}
}

// TestLogConcurrentAccess exercises Log thread safety.
func TestLogConcurrentAccess(t *testing.T) {
	l := NewLog()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Append(i)
				l.Suffix(l.FirstIndex(), 10)
				l.Get(l.LastIndex())
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			l.TruncatePrefix(l.LastIndex() / 2)
		}
	}()
	wg.Wait()
	if l.LastIndex() != 800 {
		t.Fatalf("LastIndex = %d, want 800", l.LastIndex())
	}
}
