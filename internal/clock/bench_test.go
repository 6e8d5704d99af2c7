package clock

import "testing"

var (
	orderingSink Ordering
	vectorSink   Vector
	hlcSink      HLCTimestamp
)

func BenchmarkVectorClockCompare(b *testing.B) {
	v1 := Vector{{"a", 1}, {"b", 2}, {"c", 3}}
	v2 := Vector{{"a", 2}, {"b", 1}, {"c", 3}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orderingSink = v1.Compare(v2)
	}
}

// BenchmarkVectorMerge joins two concurrent vectors, which allocates the
// one new vector that holds the join.
func BenchmarkVectorMerge(b *testing.B) {
	v1 := Vector{{"a", 1}, {"b", 2}, {"c", 3}}
	v2 := Vector{{"a", 2}, {"b", 1}, {"c", 3}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vectorSink = v1.Merge(v2)
	}
}

func BenchmarkDVVSiblingAdd(b *testing.B) {
	var s Siblings[int]
	ctx := Vector{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(MintDVV("n", ctx, uint64(i)), i)
		ctx = s.Context()
	}
}

func BenchmarkHLCNow(b *testing.B) {
	var t int64
	h := NewHLC("n", func() int64 { t++; return t })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hlcSink = h.Now()
	}
}
