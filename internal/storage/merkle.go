package storage

import (
	"hash/fnv"
	"sort"
	"sync"

	"repro/internal/ring"
	"repro/internal/wire"
)

// Merkle is a fixed-shape hash tree over a key space, used by anti-entropy
// to find divergent key ranges between two replicas while exchanging only
// O(log n) hashes (Dynamo/Cassandra style).
//
// Keys are mapped to one of 2^depth leaf buckets by key hash. Each leaf
// holds the XOR of a per-(key, version) digest of every key in the bucket;
// XOR accumulation makes updates incremental: re-adding a key first
// removes its previous digest. Internal nodes mix their children. Two
// trees are comparable only if built with equal depth.
//
// Alongside the hashes the tree keeps a per-bucket key index (bucket →
// sorted key set, maintained incrementally), so once reconciliation has
// located the divergent buckets, the keys inside them are enumerable in
// O(divergent keys) instead of a scan over every key the replica holds.
type Merkle struct {
	mu      sync.RWMutex
	depth   int
	nodes   []uint64          // heap layout; len = 2^(depth+1) - 1
	prev    map[string]uint64 // key -> last digest folded in
	buckets [][]string        // leaf bucket -> keys, sorted
}

// NewMerkle returns a tree with 2^depth leaf buckets. Depth must be in
// [1, 24]; typical anti-entropy configurations use 8–12.
func NewMerkle(depth int) *Merkle {
	if depth < 1 || depth > 24 {
		panic("storage: merkle depth out of range [1,24]")
	}
	return &Merkle{
		depth:   depth,
		nodes:   make([]uint64, (1<<(depth+1))-1),
		prev:    make(map[string]uint64),
		buckets: make([][]string, 1<<depth),
	}
}

// Depth returns the tree depth.
func (m *Merkle) Depth() int { return m.depth }

// Leaves returns the number of leaf buckets.
func (m *Merkle) Leaves() int { return 1 << m.depth }

func digest(key string, versionHash uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(versionHash >> (8 * i))
	}
	h.Write(b[:])
	d := h.Sum64()
	if d == 0 {
		d = 1 // zero would cancel against an absent key
	}
	return d
}

// Bucket returns the leaf bucket index for key, shared across replicas so
// both sides can enumerate a divergent bucket's keys.
func (m *Merkle) Bucket(key string) int {
	return int(ring.KeyHash(key) >> (64 - uint(m.depth)))
}

// Update folds (key, versionHash) into the tree, replacing the key's
// previous contribution if any. versionHash should change whenever the
// key's replicated state changes (e.g. a hash of value bytes and clock).
func (m *Merkle) Update(key string, versionHash uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := digest(key, versionHash)
	if old, ok := m.prev[key]; ok {
		if old == d {
			return
		}
		m.fold(key, old) // XOR removes the old digest; key stays indexed
	} else {
		m.indexAdd(key)
	}
	m.prev[key] = d
	m.fold(key, d)
}

// Remove deletes the key's contribution. Replicas that propagate deletes
// as tombstones should Update with the tombstone's hash instead, so both
// sides agree the key exists (as deleted).
func (m *Merkle) Remove(key string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.prev[key]; ok {
		m.fold(key, old)
		delete(m.prev, key)
		m.indexRemove(key)
	}
}

// indexAdd inserts key into its bucket's sorted key set. Caller holds mu.
func (m *Merkle) indexAdd(key string) {
	b := int(ring.KeyHash(key) >> (64 - uint(m.depth)))
	ks := m.buckets[b]
	i := sort.SearchStrings(ks, key)
	if i < len(ks) && ks[i] == key {
		return
	}
	ks = append(ks, "")
	copy(ks[i+1:], ks[i:])
	ks[i] = key
	m.buckets[b] = ks
}

// indexRemove deletes key from its bucket's sorted key set. Caller holds mu.
func (m *Merkle) indexRemove(key string) {
	b := int(ring.KeyHash(key) >> (64 - uint(m.depth)))
	ks := m.buckets[b]
	i := sort.SearchStrings(ks, key)
	if i < len(ks) && ks[i] == key {
		m.buckets[b] = append(ks[:i], ks[i+1:]...)
	}
}

// AppendBucketKeys appends the keys of the given leaf bucket, in sorted
// order, to dst and returns the extended slice. The copy keeps callers
// safe from concurrent index mutation.
func (m *Merkle) AppendBucketKeys(dst []string, bucket int) []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append(dst, m.buckets[bucket]...)
}

// BucketLen returns how many keys the given leaf bucket currently holds.
func (m *Merkle) BucketLen(bucket int) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.buckets[bucket])
}

func (m *Merkle) fold(key string, d uint64) {
	leaf := int(ring.KeyHash(key)>>(64-uint(m.depth))) + (1 << m.depth) - 1
	for i := leaf; ; i = (i - 1) / 2 {
		m.nodes[i] ^= d
		if i == 0 {
			break
		}
	}
}

// RootHash returns the root digest; equal roots mean (with overwhelming
// probability) equal replicated state.
func (m *Merkle) RootHash() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.nodes[0]
}

// LevelHashes returns the hashes of all nodes at the given level (0 =
// root, depth = leaves), the unit exchanged during reconciliation.
func (m *Merkle) LevelHashes(level int) []uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	start := (1 << level) - 1
	n := 1 << level
	out := make([]uint64, n)
	copy(out, m.nodes[start:start+n])
	return out
}

// DiffLeaves compares two equally shaped trees and returns the indices of
// leaf buckets whose hashes differ, descending only into differing
// subtrees (so the comparison cost is proportional to the divergence).
func DiffLeaves(a, b *Merkle) []int {
	if a.depth != b.depth {
		panic("storage: merkle depth mismatch")
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	b.mu.RLock()
	defer b.mu.RUnlock()
	var out []int
	firstLeaf := (1 << a.depth) - 1
	var walk func(i int)
	walk = func(i int) {
		if a.nodes[i] == b.nodes[i] {
			return
		}
		if i >= firstLeaf {
			out = append(out, i-firstLeaf)
			return
		}
		walk(2*i + 1)
		walk(2*i + 2)
	}
	walk(0)
	return out
}

// HashPair names one tree node (heap index) together with its hash — the
// unit exchanged by the top-down descent protocol.
type HashPair struct {
	Idx  int
	Hash uint64
}

// AppendHashPairs encodes ps as a nil-preserving list of (varint index,
// uvarint hash) — the pair list every descent message carries.
func AppendHashPairs(dst []byte, ps []HashPair) []byte {
	if ps == nil {
		return append(dst, 0)
	}
	dst = wire.AppendUvarint(dst, uint64(len(ps))+1)
	for _, p := range ps {
		dst = wire.AppendVarint(dst, int64(p.Idx))
		dst = wire.AppendUvarint(dst, p.Hash)
	}
	return dst
}

// ReadHashPairs decodes AppendHashPairs' encoding; nil on a short read.
func ReadHashPairs(r *wire.Reader) []HashPair {
	n, ok := r.ListLen()
	if !ok {
		return nil
	}
	out := make([]HashPair, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, HashPair{Idx: int(r.Varint()), Hash: r.Uvarint()})
	}
	if r.Err() != nil {
		return nil
	}
	return out
}

// RootPair returns the root's (index, hash) pair, the opening move of a
// top-down descent.
func (m *Merkle) RootPair() HashPair {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return HashPair{Idx: 0, Hash: m.nodes[0]}
}

// Descend advances one level of a top-down Merkle reconciliation: it
// compares the remote (index, hash) pairs against the local tree and
// returns, for every differing interior node, the local hashes of its two
// children (for the peer to compare next), plus the leaf buckets found
// divergent at this level. Equal nodes are pruned, so a nearly converged
// pair of trees exchanges O(divergence · depth) hashes instead of the
// full leaf level. Out-of-range indices are ignored (a malformed or
// depth-mismatched peer cannot panic the receiver).
func (m *Merkle) Descend(pairs []HashPair) (next []HashPair, buckets []int) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	firstLeaf := (1 << m.depth) - 1
	for _, p := range pairs {
		if p.Idx < 0 || p.Idx >= len(m.nodes) || m.nodes[p.Idx] == p.Hash {
			continue
		}
		if p.Idx >= firstLeaf {
			buckets = append(buckets, p.Idx-firstLeaf)
			continue
		}
		l, r := 2*p.Idx+1, 2*p.Idx+2
		next = append(next,
			HashPair{Idx: l, Hash: m.nodes[l]},
			HashPair{Idx: r, Hash: m.nodes[r]})
	}
	return next, buckets
}

// DescentCost returns how many (index, hash) pairs a full top-down
// descent between the two trees ships in total — the bandwidth analogue
// of HashesCompared for the descent protocol: 1 for the root plus 2 per
// differing interior node, against the flat 2^depth of a leaf-level
// exchange.
func DescentCost(a, b *Merkle) int {
	if a.depth != b.depth {
		panic("storage: merkle depth mismatch")
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	b.mu.RLock()
	defer b.mu.RUnlock()
	firstLeaf := (1 << a.depth) - 1
	cost := 1
	var walk func(i int)
	walk = func(i int) {
		if a.nodes[i] == b.nodes[i] || i >= firstLeaf {
			return
		}
		cost += 2
		walk(2*i + 1)
		walk(2*i + 2)
	}
	walk(0)
	return cost
}

// HashesCompared returns how many node-hash comparisons DiffLeaves would
// perform for the given trees — the anti-entropy bandwidth proxy used by
// the A2 ablation.
func HashesCompared(a, b *Merkle) int {
	if a.depth != b.depth {
		panic("storage: merkle depth mismatch")
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	b.mu.RLock()
	defer b.mu.RUnlock()
	firstLeaf := (1 << a.depth) - 1
	count := 0
	var walk func(i int)
	walk = func(i int) {
		count++
		if a.nodes[i] == b.nodes[i] || i >= firstLeaf {
			return
		}
		walk(2*i + 1)
		walk(2*i + 2)
	}
	walk(0)
	return count
}
