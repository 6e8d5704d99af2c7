package ring

import "testing"

// BenchmarkRingJoinDiff measures membership change: building the
// post-join ring plus computing the moved arcs that drive targeted
// anti-entropy.
func BenchmarkRingJoinDiff(b *testing.B) {
	r := New(members(16), DefaultVirtualNodes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r2 := r.Join("node99")
		if len(Diff(r, r2)) == 0 {
			b.Fatal("join moved nothing")
		}
	}
}
