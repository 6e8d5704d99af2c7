package crdt

import (
	"fmt"
	"math/rand"
	"testing"
)

// The merge and apply costs behind experiment E5's CPU panel.

func BenchmarkE5CRDTMergeORSet(b *testing.B) {
	for _, size := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("elems=%d", size), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			base := NewORSet[int]("a")
			other := NewORSet[int]("b")
			for i := 0; i < size; i++ {
				base.Add(r.Intn(size))
				other.Add(r.Intn(size))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The copy recreates a fresh merge target but is not the
				// operation under test — keep it off the clock.
				b.StopTimer()
				s := base.Copy()
				b.StartTimer()
				s.Merge(other)
			}
		})
	}
}

func BenchmarkE5CRDTMergeGCounter(b *testing.B) {
	a := NewGCounter("a")
	other := NewGCounter("b")
	a.Inc(100)
	other.Inc(200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Merge(other)
	}
}

func BenchmarkE5CRDTOpORSetApply(b *testing.B) {
	s := NewOpORSet[int]("a")
	ops := make([]AddOp[int], 1000)
	src := NewOpORSet[int]("b")
	for i := range ops {
		ops[i] = src.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Apply(ops[i%len(ops)])
	}
}

func BenchmarkRGAInsert(b *testing.B) {
	r := NewRGA[rune]("a")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Insert(r.Len(), 'x')
	}
}
