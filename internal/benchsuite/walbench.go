package benchsuite

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/wal"
)

// walRecord builds the payload the append benchmarks journal: the size
// of a typical protocol write record (key, value, small clock) as
// journaled.
func walRecord(size int) []byte {
	rec := make([]byte, size)
	rand.New(rand.NewSource(7)).Read(rec)
	return rec
}

// walAppend measures Log.Append under one fsync policy. This is the
// added per-write cost of durability: under SyncEach every iteration
// pays a real fsync (the durable-before-ack guarantee); under SyncBatch
// the flusher amortises it; under SyncNone it is pure buffered I/O.
func walAppend(b *testing.B, policy wal.SyncPolicy) {
	log, err := wal.Open(b.TempDir(), wal.Options{Policy: policy})
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	rec := walRecord(256)
	b.ReportAllocs()
	b.SetBytes(int64(len(rec) + 8)) // payload + frame header
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := log.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// walAppendConcurrent measures SyncEach Append with many goroutines in
// flight — the group-commit win. Serial SyncEach pays one fsync per
// record; with workers appending concurrently one committer fsync
// covers the whole group, so per-record cost approaches fsync/workers.
func walAppendConcurrent(b *testing.B, workers int) {
	log, err := wal.Open(b.TempDir(), wal.Options{Policy: wal.SyncEach})
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	rec := walRecord(256)
	b.ReportAllocs()
	b.SetBytes(int64(len(rec) + 8))
	b.SetParallelism(workers) // workers × GOMAXPROCS goroutines
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := log.Append(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	st := log.Stats()
	if st.GroupCommits > 0 {
		b.ReportMetric(float64(st.GroupedAppends)/float64(st.GroupCommits), "appends/fsync")
	}
}

// walRecovery measures cold-start crash recovery: Open scanning every
// segment (CRC-checking each record, finding the torn tail) plus a full
// Replay — what a restarted node pays before it can serve.
func walRecovery(b *testing.B, records int) {
	dir := b.TempDir()
	log, err := wal.Open(dir, wal.Options{Policy: wal.SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	rec := walRecord(256)
	for i := 0; i < records; i++ {
		if _, err := log.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(records * (len(rec) + 8)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := wal.Open(dir, wal.Options{Policy: wal.SyncNone})
		if err != nil {
			b.Fatal(err)
		}
		n := uint64(0)
		err = l.Replay(1, func(_ uint64, _ []byte) error { n++; return nil })
		if err != nil {
			b.Fatal(err)
		}
		if n != uint64(records) {
			b.Fatalf("replayed %d records, want %d", n, records)
		}
		l.Close()
	}
}

// walRecoveryParallel measures the same cold-start recovery replayed
// through ReplaySharded: records fan out to lanes concurrent appliers
// by a hash of the record body, modeling the quorum node's per-shard
// replay. The work per record here is trivial, so the numbers bound the
// fan-out overhead; real recovery (record decode + sibling-set merge
// per record) amortises it and scales with lanes.
func walRecoveryParallel(b *testing.B, records, lanes int) {
	dir := b.TempDir()
	log, err := wal.Open(dir, wal.Options{Policy: wal.SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	rec := walRecord(256)
	for i := 0; i < records; i++ {
		if _, err := log.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(records * (len(rec) + 8)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := wal.Open(dir, wal.Options{Policy: wal.SyncNone})
		if err != nil {
			b.Fatal(err)
		}
		counts := make([]uint64, lanes)
		err = l.ReplaySharded(1, lanes,
			func(seq uint64, _ []byte) int { return int(seq) % lanes },
			func(lane int, _ uint64, _ []byte) error { counts[lane]++; return nil })
		if err != nil {
			b.Fatal(err)
		}
		var n uint64
		for _, c := range counts {
			n += c
		}
		if n != uint64(records) {
			b.Fatalf("replayed %d records, want %d", n, records)
		}
		l.Close()
	}
}

// walBenchmarks registers the durability microbenchmarks.
func walBenchmarks() []Benchmark {
	var out []Benchmark
	for _, p := range []wal.SyncPolicy{wal.SyncEach, wal.SyncBatch, wal.SyncNone} {
		p := p
		out = append(out, Benchmark{
			Name: fmt.Sprintf("BenchmarkWALAppend/policy=%s", p),
			F:    func(b *testing.B) { walAppend(b, p) },
		})
	}
	for _, workers := range []int{4, 16} {
		workers := workers
		out = append(out, Benchmark{
			Name: fmt.Sprintf("BenchmarkWALAppendConcurrent/workers=%d", workers),
			F:    func(b *testing.B) { walAppendConcurrent(b, workers) },
		})
	}
	for _, records := range []int{1000, 10000} {
		records := records
		out = append(out, Benchmark{
			Name: fmt.Sprintf("BenchmarkWALRecovery/records=%d", records),
			F:    func(b *testing.B) { walRecovery(b, records) },
		})
	}
	for _, lanes := range []int{2, 4, 8} {
		lanes := lanes
		out = append(out, Benchmark{
			Name: fmt.Sprintf("BenchmarkWALRecoveryParallel/lanes=%d", lanes),
			F:    func(b *testing.B) { walRecoveryParallel(b, 10000, lanes) },
		})
	}
	return out
}
