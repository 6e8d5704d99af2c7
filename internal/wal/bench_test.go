package wal

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkReplay measures cold-start crash recovery of a 10,000-record
// journal: Open scanning every segment (CRC-checking each record,
// finding the torn tail) plus a full replay, what a restarted node pays
// before it can serve. lanes=1 is the serial Replay; the other cells fan
// records out to that many concurrent appliers through ReplaySharded, as
// a sharded quorum node boots. The work per record here is trivial, so
// the sharded cells bound the fan-out overhead.
func BenchmarkReplay(b *testing.B) {
	const records = 10000
	dir := b.TempDir()
	log, err := Open(dir, Options{Policy: SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	// The size of a typical protocol write record (key, value, small
	// clock) as journaled.
	rec := make([]byte, 256)
	rand.New(rand.NewSource(7)).Read(rec)
	for i := 0; i < records; i++ {
		if _, err := log.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		b.Fatal(err)
	}
	for _, lanes := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(records * (len(rec) + 8)))
			for i := 0; i < b.N; i++ {
				l, err := Open(dir, Options{Policy: SyncNone})
				if err != nil {
					b.Fatal(err)
				}
				counts := make([]uint64, lanes)
				if lanes == 1 {
					err = l.Replay(1, func(_ uint64, _ []byte) error { counts[0]++; return nil })
				} else {
					err = l.ReplaySharded(1, lanes,
						func(seq uint64, _ []byte) int { return int(seq) % lanes },
						func(lane int, _ uint64, _ []byte) error { counts[lane]++; return nil })
				}
				if err != nil {
					b.Fatal(err)
				}
				var n uint64
				for _, c := range counts {
					n += c
				}
				if n != records {
					b.Fatalf("replayed %d records, want %d", n, records)
				}
				l.Close()
			}
		})
	}
}
