// Package storage implements the per-replica storage engine used by every
// protocol in this repository: a multi-version in-memory key-value store
// with snapshots and range scans, an append-only operation log for
// replication, and Merkle trees for anti-entropy reconciliation.
package storage

import (
	"fmt"
	"sort"
	"sync"
)

// Version is one committed version of a key.
type Version struct {
	// Seq is the store-local commit sequence number; higher is newer.
	Seq uint64
	// Value is the payload. Values are treated as immutable: callers must
	// not modify a returned slice.
	Value []byte
	// Tombstone marks a deletion. Tombstones participate in replication
	// and anti-entropy like ordinary writes.
	Tombstone bool
	// Meta carries protocol-specific version metadata (vector clock, HLC
	// timestamp, causal dependencies, ...), serialized by the caller. The
	// engine never inspects it and stores it as is.
	Meta []byte
}

// KV is a multi-version key-value store. Reads can be anchored at a
// snapshot sequence number, giving repeatable reads without blocking
// writers. KV is safe for concurrent use.
type KV struct {
	mu       sync.RWMutex
	seq      uint64
	versions map[string][]Version // ascending by Seq
	keys     []string             // sorted; includes keys whose latest version is a tombstone
}

// NewKV returns an empty store.
func NewKV() *KV {
	return &KV{versions: make(map[string][]Version)}
}

// Seq returns the sequence number of the most recent commit.
func (kv *KV) Seq() uint64 {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return kv.seq
}

// Put commits a new version of key and returns its sequence number.
func (kv *KV) Put(key string, value []byte, meta []byte) uint64 {
	return kv.commit(key, Version{Value: value, Meta: meta})
}

// Delete commits a tombstone for key and returns its sequence number.
func (kv *KV) Delete(key string, meta []byte) uint64 {
	return kv.commit(key, Version{Tombstone: true, Meta: meta})
}

func (kv *KV) commit(key string, v Version) uint64 {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.seq++
	v.Seq = kv.seq
	if _, ok := kv.versions[key]; !ok {
		i := sort.SearchStrings(kv.keys, key)
		kv.keys = append(kv.keys, "")
		copy(kv.keys[i+1:], kv.keys[i:])
		kv.keys[i] = key
	}
	kv.versions[key] = append(kv.versions[key], v)
	return kv.seq
}

// Get returns the latest version of key. ok is false if the key has never
// been written or its latest version is a tombstone.
func (kv *KV) Get(key string) (Version, bool) {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return kv.getAt(key, kv.seq)
}

// View implements Engine. It lends the stored slice itself, which Get
// returns as well: KV never copies a value.
func (kv *KV) View(key string, fn func(Version)) bool {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	v, ok := kv.getAt(key, kv.seq)
	if ok {
		fn(v)
	}
	return ok
}

// GetAt returns the newest version of key with Seq <= at, i.e. the value a
// snapshot taken at sequence at observes.
func (kv *KV) GetAt(key string, at uint64) (Version, bool) {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return kv.getAt(key, at)
}

// GetAny is like Get but also returns tombstoned versions, for replication
// layers that must propagate deletes.
func (kv *KV) GetAny(key string) (Version, bool) {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	vs := kv.versions[key]
	if len(vs) == 0 {
		return Version{}, false
	}
	return vs[len(vs)-1], true
}

func (kv *KV) getAt(key string, at uint64) (Version, bool) {
	vs := kv.versions[key]
	// Newest version with Seq <= at.
	i := sort.Search(len(vs), func(i int) bool { return vs[i].Seq > at })
	if i == 0 {
		return Version{}, false
	}
	v := vs[i-1]
	if v.Tombstone {
		return Version{}, false
	}
	return v, true
}

// Snapshot returns a consistent read-only view anchored at the current
// sequence number.
func (kv *KV) Snapshot() *Snapshot {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return &Snapshot{kv: kv, at: kv.seq}
}

// OpenSnapshot implements Engine. KV snapshots read through the live
// version map, so no release bookkeeping is needed — the checkpointer
// that pairs Snapshot with a later Compact(at) already guarantees the
// anchored view stays readable.
func (kv *KV) OpenSnapshot() EngineSnapshot { return kv.Snapshot() }

// Close implements Engine; the in-memory store holds no resources.
func (kv *KV) Close() error { return nil }

// Len returns the number of live (non-tombstoned) keys.
func (kv *KV) Len() int {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	n := 0
	for _, key := range kv.keys {
		vs := kv.versions[key]
		if len(vs) > 0 && !vs[len(vs)-1].Tombstone {
			n++
		}
	}
	return n
}

// Pair is a key together with one of its versions.
type Pair struct {
	Key     string
	Version Version
}

// Scan returns live key/version pairs in [start, end) in key order. An
// empty end means "to the end of the keyspace". Limit <= 0 means no limit.
func (kv *KV) Scan(start, end string, limit int) []Pair {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return kv.scanAt(start, end, limit, kv.seq, false)
}

// ScanAll is Scan but includes tombstoned latest versions, for replication.
func (kv *KV) ScanAll(start, end string, limit int) []Pair {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return kv.scanAt(start, end, limit, kv.seq, true)
}

func (kv *KV) scanAt(start, end string, limit int, at uint64, includeTombstones bool) []Pair {
	var out []Pair
	i := sort.SearchStrings(kv.keys, start)
	for ; i < len(kv.keys); i++ {
		key := kv.keys[i]
		if end != "" && key >= end {
			break
		}
		vs := kv.versions[key]
		j := sort.Search(len(vs), func(i int) bool { return vs[i].Seq > at })
		if j == 0 {
			continue
		}
		v := vs[j-1]
		if v.Tombstone && !includeTombstones {
			continue
		}
		out = append(out, Pair{Key: key, Version: v})
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// Compact discards versions that are no longer visible to any snapshot at
// or after keepSeq: for each key, all versions older than the newest
// version with Seq <= keepSeq. Fully tombstoned keys whose tombstone is
// older than keepSeq are removed entirely.
func (kv *KV) Compact(keepSeq uint64) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	keys := kv.keys[:0]
	for _, key := range kv.keys {
		vs := kv.versions[key]
		i := sort.Search(len(vs), func(i int) bool { return vs[i].Seq > keepSeq })
		if i > 0 {
			vs = vs[i-1:]
		}
		if len(vs) == 1 && vs[0].Tombstone && vs[0].Seq <= keepSeq {
			delete(kv.versions, key)
			continue
		}
		kv.versions[key] = vs
		keys = append(keys, key)
	}
	kv.keys = keys
}

// VersionCount returns the total number of retained versions, for
// compaction tests and memory accounting.
func (kv *KV) VersionCount() int {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	n := 0
	for _, vs := range kv.versions {
		n += len(vs)
	}
	return n
}

// Snapshot is a read-only view of a KV at a fixed sequence number.
type Snapshot struct {
	kv *KV
	at uint64
}

// Seq returns the sequence number the snapshot is anchored at.
func (s *Snapshot) Seq() uint64 { return s.at }

// Get returns the version of key visible at the snapshot.
func (s *Snapshot) Get(key string) (Version, bool) {
	s.kv.mu.RLock()
	defer s.kv.mu.RUnlock()
	return s.kv.getAt(key, s.at)
}

// Scan returns live pairs in [start, end) visible at the snapshot.
func (s *Snapshot) Scan(start, end string, limit int) []Pair {
	s.kv.mu.RLock()
	defer s.kv.mu.RUnlock()
	return s.kv.scanAt(start, end, limit, s.at, false)
}

// String implements fmt.Stringer.
func (s *Snapshot) String() string { return fmt.Sprintf("snapshot@%d", s.at) }

// Release implements EngineSnapshot; KV snapshots hold nothing back.
func (s *Snapshot) Release() {}
