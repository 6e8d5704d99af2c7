package storage

// Key-range sharding for multi-core replica execution. A ShardRouter
// partitions the keyspace by the top bits of the same FNV-64a hash the
// Merkle tree buckets by, so a shard always owns a contiguous range of
// Merkle buckets (shard s of S covers buckets [s*B/S, (s+1)*B/S) for a
// tree of B buckets whenever S <= B and both are powers of two). That
// alignment is what lets per-shard execution and per-peer anti-entropy
// trees coexist without cross-shard bucket traffic.

// ShardRouter maps keys to one of a power-of-two number of shards by
// the top bits of the key's FNV-64a hash.
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
	return int(hashKey(key) >> r.shift)
}

// ShardOfHash routes a precomputed KeyHash value. Because the shard is
// the hash's top bits, a hash recorded under one shard count routes
// correctly under any other.
func (r ShardRouter) ShardOfHash(h uint64) int {
	return int(h >> r.shift)
}

// KeyHash exposes the FNV-64a key hash the router and the Merkle tree
// share, for callers that persist it (WAL record headers) or check
// bucket alignment.
func KeyHash(key string) uint64 { return hashKey(key) }

// ShardedKV partitions a multi-version store into independently locked
// engine shards. Each shard is a full Engine with its own sequence
// domain; cross-shard operations (checkpoint, transfer iteration) visit
// shards via ForEach. The default constructor builds in-memory KV
// shards; NewSharded routes to any per-shard engine (e.g. disk-resident
// LSM trees).
type ShardedKV struct {
	router ShardRouter
	shards []Engine
}

// NewShardedKV returns a store with n in-memory shards (rounded up to a
// power of two, minimum 1).
func NewShardedKV(n int) *ShardedKV {
	return NewSharded(n, func(int) Engine { return NewKV() })
}

// NewSharded returns a store whose n shards (rounded up to a power of
// two, minimum 1) are built by factory, one engine per shard index.
func NewSharded(n int, factory func(shard int) Engine) *ShardedKV {
	r := NewShardRouter(n)
	shards := make([]Engine, r.Shards())
	for i := range shards {
		shards[i] = factory(i)
	}
	return &ShardedKV{router: r, shards: shards}
}

// Router returns the key → shard mapping.
func (s *ShardedKV) Router() ShardRouter { return s.router }

// Shards returns the shard count.
func (s *ShardedKV) Shards() int { return len(s.shards) }

// Shard returns shard i's engine for direct (per-shard) access.
func (s *ShardedKV) Shard(i int) Engine { return s.shards[i] }

// For returns the engine owning key.
func (s *ShardedKV) For(key string) Engine { return s.shards[s.router.Shard(key)] }

// ForEach visits every shard in index order.
func (s *ShardedKV) ForEach(fn func(i int, e Engine)) {
	for i, e := range s.shards {
		fn(i, e)
	}
}

// Close closes every shard engine, returning the first error.
func (s *ShardedKV) Close() error {
	var first error
	for _, e := range s.shards {
		if err := e.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Put commits a new version of key on its owning shard.
func (s *ShardedKV) Put(key string, value []byte, meta []byte) uint64 {
	return s.For(key).Put(key, value, meta)
}

// Delete commits a tombstone for key on its owning shard.
func (s *ShardedKV) Delete(key string, meta []byte) uint64 {
	return s.For(key).Delete(key, meta)
}

// Get returns the latest live version of key.
func (s *ShardedKV) Get(key string) (Version, bool) { return s.For(key).Get(key) }

// GetAny is Get including tombstones.
func (s *ShardedKV) GetAny(key string) (Version, bool) { return s.For(key).GetAny(key) }

// Len returns the number of live keys across all shards.
func (s *ShardedKV) Len() int {
	n := 0
	for _, kv := range s.shards {
		n += kv.Len()
	}
	return n
}
