package storage

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/ring"
)

// rebuildIndex recomputes the bucket → sorted-keys index of m from
// scratch out of its prev map, the ground truth the incremental index
// must track.
func rebuildIndex(m *Merkle) [][]string {
	out := make([][]string, m.Leaves())
	m.mu.RLock()
	defer m.mu.RUnlock()
	for key := range m.prev {
		b := int(ring.KeyHash(key) >> (64 - uint(m.depth)))
		out[b] = append(out[b], key)
	}
	for _, ks := range out {
		sort.Strings(ks)
	}
	return out
}

func indexesEqual(t *testing.T, m *Merkle, want [][]string) {
	t.Helper()
	for b := range want {
		got := m.AppendBucketKeys(nil, b)
		if len(got) != len(want[b]) {
			t.Fatalf("bucket %d: incremental index %v, rebuild %v", b, got, want[b])
		}
		for i := range got {
			if got[i] != want[b][i] {
				t.Fatalf("bucket %d: incremental index %v, rebuild %v", b, got, want[b])
			}
		}
		if m.BucketLen(b) != len(want[b]) {
			t.Fatalf("bucket %d: BucketLen %d, want %d", b, m.BucketLen(b), len(want[b]))
		}
	}
}

// TestMerkleIndexMatchesRebuild: under random Put/Delete sequences, the
// incrementally maintained bucket index equals a from-scratch rebuild.
func TestMerkleIndexMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := NewMerkle(4) // few buckets → plenty of collisions
		for op := 0; op < 300; op++ {
			key := fmt.Sprintf("key-%d", r.Intn(40))
			switch r.Intn(4) {
			case 0:
				m.Remove(key)
			default:
				m.Update(key, r.Uint64())
			}
		}
		indexesEqual(t, m, rebuildIndex(m))
	}
}

// TestMerkleIndexSortedWithinBucket: keys inside a bucket come back in
// sorted order regardless of insertion order.
func TestMerkleIndexSortedWithinBucket(t *testing.T) {
	m := NewMerkle(1) // 2 buckets: heavy collision on purpose
	keys := []string{"q", "b", "z", "a", "m", "c"}
	for i, k := range keys {
		m.Update(k, uint64(i+1))
	}
	for b := 0; b < m.Leaves(); b++ {
		ks := m.AppendBucketKeys(nil, b)
		if !sort.StringsAreSorted(ks) {
			t.Fatalf("bucket %d not sorted: %v", b, ks)
		}
	}
	total := m.BucketLen(0) + m.BucketLen(1)
	if total != len(keys) {
		t.Fatalf("index holds %d keys, want %d", total, len(keys))
	}
}

// runDescent drives a full top-down descent between two trees the way
// the gossip protocol does — alternating which side compares — and
// returns the divergent leaf buckets discovered, plus the total number
// of hash pairs shipped.
func runDescent(a, b *Merkle) (buckets []int, pairsShipped int) {
	trees := [2]*Merkle{b, a} // first message carries a's root, compared at b
	pairs := []HashPair{a.RootPair()}
	pairsShipped = 1
	for turn := 0; len(pairs) > 0; turn++ {
		next, found := trees[turn%2].Descend(pairs)
		buckets = append(buckets, found...)
		pairsShipped += len(next)
		pairs = next
	}
	sort.Ints(buckets)
	return buckets, pairsShipped
}

// TestMerkleDescentFindsDiffLeaves: the top-down descent discovers
// exactly the divergent leaves DiffLeaves reports, under random
// divergence patterns.
func TestMerkleDescentFindsDiffLeaves(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		a, b := NewMerkle(6), NewMerkle(6)
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("key-%d", i)
			v := r.Uint64()
			a.Update(k, v)
			b.Update(k, v)
		}
		// Random divergence: version skews, one-sided keys, deletions.
		for i := 0; i < r.Intn(8); i++ {
			switch r.Intn(3) {
			case 0:
				b.Update(fmt.Sprintf("key-%d", r.Intn(200)), r.Uint64())
			case 1:
				a.Update(fmt.Sprintf("only-a-%d", i), r.Uint64())
			case 2:
				b.Remove(fmt.Sprintf("key-%d", r.Intn(200)))
			}
		}
		want := DiffLeaves(a, b)
		sort.Ints(want)
		got, _ := runDescent(a, b)
		if len(got) != len(want) {
			t.Fatalf("seed %d: descent found %v, DiffLeaves %v", seed, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: descent found %v, DiffLeaves %v", seed, got, want)
			}
		}
	}
}

// TestMerkleDescentCheapNearConvergence: with one divergent key in 10k,
// the descent ships O(depth) pairs where the leaf-level exchange ships
// 2^depth hashes; equal trees cost exactly one pair.
func TestMerkleDescentCheapNearConvergence(t *testing.T) {
	a, b := NewMerkle(12), NewMerkle(12)
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("key-%d", i)
		a.Update(k, uint64(i))
		b.Update(k, uint64(i))
	}
	eq, shipped := runDescent(a, b)
	if len(eq) != 0 || shipped != 1 {
		t.Fatalf("equal trees: buckets %v, %d pairs shipped, want none/1", eq, shipped)
	}
	b.Update("key-42", 999999)
	buckets, shipped := runDescent(a, b)
	if len(buckets) != 1 || buckets[0] != a.Bucket("key-42") {
		t.Fatalf("descent buckets %v, want [%d]", buckets, a.Bucket("key-42"))
	}
	if max := 2*12 + 1; shipped > max {
		t.Fatalf("descent shipped %d pairs for one divergent key, want ≤ %d", shipped, max)
	}
	if got, want := shipped, DescentCost(a, b); got != want {
		t.Fatalf("DescentCost %d disagrees with actual descent %d", want, got)
	}
	if lvl := 1 << 12; shipped*50 > lvl {
		t.Fatalf("descent (%d pairs) not ≪ leaf exchange (%d hashes)", shipped, lvl)
	}
}
