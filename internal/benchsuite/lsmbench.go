package benchsuite

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/lsm"
	"repro/internal/workload"
)

// lsmPutGet drives the disk-resident engine with a scrambled-zipfian
// mixed workload whose working set is many times the memtable
// threshold, so every run reads and writes across the memtable/SSTable
// boundary. A quarter of the operations are gets for keys that were
// never written: the bloom filters must keep those negative lookups
// from touching data blocks, which is the property that makes an LSM
// read path viable at all.
func lsmPutGet(b *testing.B) {
	e, err := lsm.Open(lsm.Options{
		Dir:           b.TempDir(),
		MemtableBytes: 256 << 10,
		BlockBytes:    4 << 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()

	const keys = 20000
	value := make([]byte, 256)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	for i := 0; i < keys; i++ {
		e.Put(workload.KeyName("lsm-", i), value, nil)
	}
	if e.Stats().SSTables == 0 {
		b.Fatal("working set fits the memtable; the benchmark is not exercising the disk path")
	}

	zipf := workload.NewBigZipfian(keys, 0.99)
	rng := rand.New(rand.NewSource(1))
	before := e.Stats()
	var negatives uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch i % 4 {
		case 0:
			e.Put(workload.KeyName("lsm-", zipf.Next(rng)), value, nil)
		case 1:
			if _, ok := e.Get(fmt.Sprintf("absent-%d", rng.Int())); ok {
				b.Fatal("phantom key found")
			}
			negatives++
		default:
			if _, ok := e.Get(workload.KeyName("lsm-", zipf.Next(rng))); !ok {
				b.Fatal("preloaded key missing")
			}
		}
	}
	b.StopTimer()
	st := e.Stats()
	b.ReportMetric(float64(st.SSTables), "sstables")
	if negatives > 0 {
		// Data blocks read per negative lookup: near zero when the
		// blooms are doing their job.
		b.ReportMetric(float64(st.BlockReads-before.BlockReads)/float64(negatives), "blocks/neg-get")
	}
}

// lsmCompaction measures flush-driven tier merges: each iteration
// overwrites a slice of the keyspace and flushes it as a run, and every
// MaxTablesPerTier adjacent runs of a tier merge into one, the newest
// value of each key winning.
func lsmCompaction(b *testing.B) {
	e, err := lsm.Open(lsm.Options{
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

// lsmBenchmarks registers the storage-engine disk-path benchmarks.
func lsmBenchmarks() []Benchmark {
	return []Benchmark{
		{Name: "BenchmarkLSMPutGet", F: lsmPutGet},
		{Name: "BenchmarkLSMCompaction", F: lsmCompaction},
	}
}
