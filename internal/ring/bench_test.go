package ring

import "testing"

// BenchmarkRingJoinDiff measures membership change: building the
// post-join ring plus computing the arcs whose replica sets moved, which
// drive the joiner's transfer.
func BenchmarkRingJoinDiff(b *testing.B) {
	r := New(members(16), DefaultVirtualNodes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r2 := r.Join("node99")
		if len(DiffN(r, r2, 3)) == 0 {
			b.Fatal("join moved nothing")
		}
	}
}
