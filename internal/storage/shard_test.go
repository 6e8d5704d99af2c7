package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ring"
)

func TestShardRouterRounding(t *testing.T) {
	cases := []struct{ in, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {8, 8}, {9, 16},
	}
	for _, c := range cases {
		if got := NewShardRouter(c.in).Shards(); got != c.want {
			t.Errorf("NewShardRouter(%d).Shards() = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestShardRouterSingleShardAlwaysZero(t *testing.T) {
	r := NewShardRouter(1)
	for i := 0; i < 1000; i++ {
		if s := r.Shard(fmt.Sprintf("key-%d", i)); s != 0 {
			t.Fatalf("single-shard router returned shard %d", s)
		}
	}
}

// TestShardRouterAgreesWithMerkleBuckets pins the alignment the sharded
// replica depends on: a shard owns a contiguous range of Merkle
// buckets, i.e. shard(key) is exactly the top log2(S) bits of the
// bucket index for any tree at least that deep.
func TestShardRouterAgreesWithMerkleBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, shards := range []int{1, 2, 4, 8, 16} {
		r := NewShardRouter(shards)
		logS := 0
		for 1<<logS < r.Shards() {
			logS++
		}
		for _, depth := range []int{logS, logS + 1, logS + 4} {
			if depth < 1 {
				depth = 1
			}
			m := NewMerkle(depth)
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("key-%d-%d", i, rng.Intn(1<<20))
				bucket := m.Bucket(key)
				want := bucket >> (uint(depth) - uint(logS))
				if got := r.Shard(key); got != want {
					t.Fatalf("shards=%d depth=%d key=%q: shard %d, want bucket %d >> %d = %d",
						shards, depth, key, got, bucket, depth-logS, want)
				}
			}
		}
	}
}

func TestShardRouterHashRouting(t *testing.T) {
	// A key hash recorded under one shard count must route to the shard
	// owning the key under any other count.
	for _, shards := range []int{1, 2, 8} {
		r := NewShardRouter(shards)
		for i := 0; i < 500; i++ {
			key := fmt.Sprintf("k%d", i)
			if r.ShardOfHash(ring.KeyHash(key)) != r.Shard(key) {
				t.Fatalf("shards=%d: ShardOfHash disagrees with Shard for %q", shards, key)
			}
		}
	}
}

// TestKeyHashAgreesAcrossShardsBucketsAndArcs: a key's shard, its Merkle
// leaf bucket and the ring arc that holds it are all intervals of one
// 64-bit value, ring.KeyHash(key). Arbitrary keys land in the shard and
// the bucket whose top-bit interval contains that value, and a key changes
// replicas when a node joins exactly when an arc DiffN reports contains
// it, with that arc's owners.
func TestKeyHashAgreesAcrossShardsBucketsAndArcs(t *testing.T) {
	before := ring.New([]string{"a", "b", "c", "d"}, ring.DefaultVirtualNodes)
	after := before.Join("e")
	arcs := ring.DiffN(before, after, 3)
	rng := rand.New(rand.NewSource(7))
	// within: h lies in the idx-th of 2^bits equal intervals of the circle.
	within := func(h uint64, idx int, bits uint) bool { return h>>(64-bits) == uint64(idx) }
	moved := 0
	for i := 0; i < 5000; i++ {
		b := make([]byte, rng.Intn(24))
		rng.Read(b)
		key := string(b)
		h := ring.KeyHash(key)
		for _, bits := range []uint{0, 1, 3, 6} {
			if r := NewShardRouter(1 << bits); !within(h, r.Shard(key), bits) || r.ShardOfHash(h) != r.Shard(key) {
				t.Fatalf("%q: shard %d of %d does not hold its hash %#x", key, r.Shard(key), r.Shards(), h)
			}
		}
		for _, depth := range []int{1, 8, 12} {
			if m := NewMerkle(depth); !within(h, m.Bucket(key), uint(depth)) {
				t.Fatalf("%q: bucket %d at depth %d does not hold its hash %#x", key, m.Bucket(key), depth, h)
			}
		}
		old, cur := before.Replicas(key, 3), after.Replicas(key, 3)
		var arc *ring.RangeN
		for j := range arcs {
			if arcs[j].Contains(h) {
				arc = &arcs[j]
			}
		}
		if changed := !slices.Equal(old, cur); changed != (arc != nil) ||
			arc != nil && (!slices.Equal(arc.Old, old) || !slices.Equal(arc.New, cur)) {
			t.Fatalf("%q (hash %#x): replicas %v -> %v, arc %+v", key, h, old, cur, arc)
		} else if changed {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no key moved on the join: the arcs were not exercised")
	}
}
