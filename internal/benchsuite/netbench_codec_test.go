package benchsuite

import (
	"testing"

	"repro/internal/wiretest"
)

// Codec pinning for the benchmark payload, so the framing benchmarks
// measure a codec that is actually correct.

func checkAll(t testing.TB, seed int64) {
	g := wiretest.NewGen(seed)
	var vec map[string]uint64
	if g.R.Intn(4) != 0 {
		n := g.R.Intn(5)
		vec = make(map[string]uint64, n)
		for i := 0; i < n; i++ {
			vec["node"+g.Str()] = g.Uint64()
		}
	}
	wiretest.Check(t, benchPayload{Key: g.Str(), Val: g.Bytes(), Vec: vec})
}

func TestCodecRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 256; seed++ {
		checkAll(t, seed)
	}
}

func FuzzCodecRoundTrip(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkAll(t, seed) })
}
