package workload

import (
	"math/rand"
	"testing"
)

var rankSink int

func BenchmarkZipfianNext(b *testing.B) {
	z := NewZipfian(100000, 0.99)
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rankSink = z.Next(r)
	}
}
