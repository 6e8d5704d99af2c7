package clock

import "testing"

var (
	orderingSink Ordering
	hlcSink      HLCTimestamp
)

func BenchmarkVectorClockCompare(b *testing.B) {
	v1 := Vector{"a": 1, "b": 2, "c": 3}
	v2 := Vector{"a": 2, "b": 1, "c": 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orderingSink = v1.Compare(v2)
	}
}

// BenchmarkDenseClockCompare measures the interned flat-slice
// representation on the same clocks as BenchmarkVectorClockCompare.
func BenchmarkDenseClockCompare(b *testing.B) {
	table := NewNodeTable()
	d1 := DenseFromVector(table, Vector{"a": 1, "b": 2, "c": 3})
	d2 := DenseFromVector(table, Vector{"a": 2, "b": 1, "c": 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orderingSink = d1.Compare(d2)
	}
}

func BenchmarkDVVSiblingAdd(b *testing.B) {
	var s Siblings[int]
	ctx := NewVector()
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
