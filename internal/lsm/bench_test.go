package lsm

import (
	"testing"

	"repro/internal/workload"
)

// BenchmarkLSMCompaction measures flush-driven tier merges: each
// iteration overwrites a slice of the keyspace and flushes it as a run,
// and every MaxTablesPerTier adjacent runs of a tier merge into one, the
// newest value of each key winning.
func BenchmarkLSMCompaction(b *testing.B) {
	e, err := Open(Options{
		Dir:           b.TempDir(),
		MemtableBytes: 128 << 10,
		BlockBytes:    4 << 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()

	const keys = 2000
	value := make([]byte, 128)
	for i := 0; i < keys; i++ {
		e.Put(workload.KeyName("c-", i), value, nil)
	}
	before := e.Stats().Compactions
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := (i * 500) % keys
		for j := 0; j < 500; j++ {
			e.Put(workload.KeyName("c-", (base+j)%keys), value, nil)
		}
		if err := e.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	merges := e.Stats().Compactions - before
	if b.N >= 4 && merges == 0 {
		b.Fatal("no compactions ran")
	}
	b.ReportMetric(float64(merges)/float64(b.N), "merges/op")
}
