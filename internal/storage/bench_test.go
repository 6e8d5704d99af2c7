package storage

import (
	"fmt"
	"testing"
)

var leavesSink []int

func BenchmarkMerkleUpdate(b *testing.B) {
	m := NewMerkle(12)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Update(keys[i%len(keys)], uint64(i))
	}
}

// divergentPair builds two 10k-key trees differing in a single key —
// the near-convergence reconciliation workload.
func divergentPair(depth int) (*Merkle, *Merkle) {
	x, y := NewMerkle(depth), NewMerkle(depth)
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("key-%d", i)
		x.Update(k, uint64(i))
		y.Update(k, uint64(i))
	}
	y.Update("key-42", 999)
	return x, y
}

func BenchmarkMerkleDiff(b *testing.B) {
	x, y := divergentPair(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		leavesSink = DiffLeaves(x, y)
	}
}

// BenchmarkMerkleDescend measures the top-down descent the gossip store
// uses in place of the flat leaf exchange BenchmarkMerkleDiff models.
func BenchmarkMerkleDescend(b *testing.B) {
	x, y := divergentPair(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs := []HashPair{x.RootPair()}
		side := y
		otherSide := x
		for len(pairs) > 0 {
			pairs, _ = side.Descend(pairs)
			side, otherSide = otherSide, side
		}
	}
}
