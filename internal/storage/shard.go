package storage

import "repro/internal/ring"

// Key-range sharding for multi-core replica execution. A ShardRouter
// partitions the keyspace by the top bits of the one key hash, the
// ring.KeyHash the Merkle tree buckets by and the ring places by, so a
// shard always owns a contiguous range of Merkle buckets (shard s of S
// covers buckets [s*B/S, (s+1)*B/S) for a tree of B buckets whenever
// S <= B and both are powers of two). That
// alignment is what lets per-shard execution and per-peer anti-entropy
// trees coexist without cross-shard bucket traffic.

// ShardRouter maps keys to one of a power-of-two number of shards by
// the top bits of the key's ring.KeyHash.
type ShardRouter struct {
	n     int
	shift uint
}

// NewShardRouter returns a router over n shards. n is rounded up to the
// next power of two (minimum 1) so shard ranges align with Merkle
// bucket boundaries.
func NewShardRouter(n int) ShardRouter {
	if n < 1 {
		n = 1
	}
	p := 1
	shift := uint(64)
	for p < n {
		p <<= 1
		shift--
	}
	return ShardRouter{n: p, shift: shift}
}

// Shards returns the (power-of-two) shard count.
func (r ShardRouter) Shards() int { return r.n }

// Shard returns the shard owning key. For a single-shard router this is
// always 0 (a uint64 shifted by 64 is 0 in Go).
func (r ShardRouter) Shard(key string) int {
	return int(ring.KeyHash(key) >> r.shift)
}

// ShardOfHash routes a precomputed ring.KeyHash value. Because the shard is
// the hash's top bits, a hash recorded under one shard count routes
// correctly under any other.
func (r ShardRouter) ShardOfHash(h uint64) int {
	return int(h >> r.shift)
}
