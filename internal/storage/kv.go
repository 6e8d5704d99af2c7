// Package storage holds the replica-side building blocks: the Engine
// contract a quorum replica stores its sibling sets behind, with KV as
// its in-memory implementation (internal/lsm is the disk-resident one),
// the key-range ShardRouter, an append-only operation log for
// replication, and Merkle trees for anti-entropy reconciliation.
package storage

import (
	"sort"
	"sync"
)

// KV is the in-memory Engine: a map of values plus a sorted key index for
// range scans. Values are treated as immutable, so Get hands out the
// stored slice itself. KV is safe for concurrent use.
type KV struct {
	mu    sync.RWMutex
	vals  map[string][]byte
	keys  []string // sorted
	bytes int      // key and value bytes held
}

// NewKV returns an empty store.
func NewKV() *KV {
	return &KV{vals: make(map[string][]byte)}
}

// Put stores value under key. The store keeps value itself, not a copy:
// the caller must not write through it afterwards.
func (kv *KV) Put(key string, value []byte, _ []byte) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	old, ok := kv.vals[key]
	if !ok {
		i := sort.SearchStrings(kv.keys, key)
		kv.keys = append(kv.keys, "")
		copy(kv.keys[i+1:], kv.keys[i:])
		kv.keys[i] = key
		kv.bytes += len(key)
	}
	kv.bytes += len(value) - len(old)
	kv.vals[key] = value
}

// Get returns the stored value of key, uncopied.
func (kv *KV) Get(key string) ([]byte, bool) {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	v, ok := kv.vals[key]
	return v, ok
}

// View implements Engine. It lends the stored slice itself, which Get
// returns as well: KV never copies a value.
func (kv *KV) View(key string, fn func([]byte)) bool {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	v, ok := kv.vals[key]
	if ok {
		fn(v)
	}
	return ok
}

// Scan returns the pairs in [start, end) in key order. An empty end means
// "to the end of the keyspace". Limit <= 0 means no limit. Both bounds are
// found by binary search, so the result is allocated once at its size.
func (kv *KV) Scan(start, end string, limit int) []Pair {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	lo, hi := sort.SearchStrings(kv.keys, start), len(kv.keys)
	if end != "" {
		hi = sort.SearchStrings(kv.keys, end)
	}
	if limit > 0 && hi-lo > limit {
		hi = lo + limit
	}
	if hi <= lo {
		return nil
	}
	out := make([]Pair, hi-lo)
	for i, key := range kv.keys[lo:hi] {
		out[i] = Pair{Key: key, Value: kv.vals[key]}
	}
	return out
}

// Len returns the number of keys.
func (kv *KV) Len() int {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return len(kv.keys)
}

// Bytes returns the key and value bytes the store holds, which the LSM
// engine sizes its memtable by.
func (kv *KV) Bytes() int {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return kv.bytes
}

// Close implements Engine; the in-memory store holds no resources.
func (kv *KV) Close() error { return nil }
