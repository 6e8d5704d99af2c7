package storage

import (
	"fmt"
	"math/rand"
	"testing"
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
			if r.ShardOfHash(KeyHash(key)) != r.Shard(key) {
				t.Fatalf("shards=%d: ShardOfHash disagrees with Shard for %q", shards, key)
			}
		}
	}
}
