// Package benchsuite is the single registry of the repository's
// micro-benchmarks: CPU costs of the primitives the experiments lean on
// (CRDT merges, clock comparisons, Merkle reconciliation, storage ops).
//
// Both entry points measure exactly the same functions:
//
//   - bench_test.go delegates its Benchmark* wrappers here, so
//     `go test -bench` reports the canonical names;
//   - `ecbench -bench` runs the suite through testing.Benchmark and
//     writes a JSON baseline (BENCH_baseline.json at the repo root),
//     which cmd/benchcheck compares fresh runs against.
package benchsuite

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/crdt"
	"repro/internal/ot"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Benchmark is one registered micro-benchmark. Name is the full go-test
// identifier, including any sub-benchmark path (for example
// "BenchmarkE5CRDTMergeORSet/elems=100").
type Benchmark struct {
	Name string
	F    func(b *testing.B)
	// Skip, when non-empty, marks the benchmark meaningless on this
	// host (for example a shard sweep without real cores); runners must
	// report the reason and not execute F. The decision is made at
	// registration rather than via b.Skip inside F because ecbench
	// drives entries through testing.Benchmark, where Skip's logging
	// panics outside a `go test` harness.
	Skip string
}

// All returns every registered micro-benchmark in a stable order.
func All() []Benchmark {
	var out []Benchmark
	for _, size := range []int{100, 1000, 10000} {
		size := size
		out = append(out, Benchmark{
			Name: fmt.Sprintf("BenchmarkE5CRDTMergeORSet/elems=%d", size),
			F:    func(b *testing.B) { orsetMerge(b, size) },
		})
	}
	out = append(out,
		Benchmark{Name: "BenchmarkE5CRDTMergeGCounter", F: gcounterMerge},
		Benchmark{Name: "BenchmarkE5CRDTOpORSetApply", F: opORSetApply},
		Benchmark{Name: "BenchmarkRGAInsert", F: rgaInsert},
		Benchmark{Name: "BenchmarkOTTransform", F: otTransform},
		Benchmark{Name: "BenchmarkOTvsRGAEditing/ot-jupiter", F: otJupiterEditing},
		Benchmark{Name: "BenchmarkOTvsRGAEditing/rga", F: rgaEditing},
		Benchmark{Name: "BenchmarkVectorClockCompare", F: vectorClockCompare},
		Benchmark{Name: "BenchmarkDenseClockCompare", F: denseClockCompare},
		Benchmark{Name: "BenchmarkDVVSiblingAdd", F: dvvSiblingAdd},
		Benchmark{Name: "BenchmarkMerkleUpdate", F: merkleUpdate},
		Benchmark{Name: "BenchmarkMerkleDiff", F: merkleDiff},
		Benchmark{Name: "BenchmarkMerkleDescend", F: merkleDescend},
		Benchmark{Name: "BenchmarkKVPut", F: kvPut},
		Benchmark{Name: "BenchmarkKVGet", F: kvGet},
		Benchmark{Name: "BenchmarkZipfianNext", F: zipfianNext},
		Benchmark{Name: "BenchmarkHLCNow", F: hlcNow},
	)
	for _, size := range []int{64, 1024, 16384} {
		size := size
		out = append(out,
			Benchmark{
				Name: fmt.Sprintf("BenchmarkTransportFrameEncode/bytes=%d", size),
				F:    func(b *testing.B) { frameEncode(b, size) },
			},
			Benchmark{
				Name: fmt.Sprintf("BenchmarkTransportFrameDecode/bytes=%d", size),
				F:    func(b *testing.B) { frameDecode(b, size) },
			},
		)
	}
	for _, members := range []int{4, 16, 64} {
		members := members
		out = append(out,
			Benchmark{
				Name: fmt.Sprintf("BenchmarkRingOwner/members=%d", members),
				F:    func(b *testing.B) { ringOwner(b, members) },
			},
			Benchmark{
				Name: fmt.Sprintf("BenchmarkRingReplicas/members=%d", members),
				F:    func(b *testing.B) { ringReplicas(b, members) },
			},
		)
	}
	out = append(out, Benchmark{Name: "BenchmarkRingJoinDiff", F: ringJoinDiff})
	out = append(out, walBenchmarks()...)
	out = append(out, lsmBenchmarks()...)
	out = append(out, geoBenchmarks()...)
	out = append(out, satBenchmarks()...)
	return out
}

// Group returns the benchmarks whose name is name or a sub-benchmark of
// name ("name/...").
func Group(name string) []Benchmark {
	var out []Benchmark
	for _, bm := range All() {
		if bm.Name == name || strings.HasPrefix(bm.Name, name+"/") {
			out = append(out, bm)
		}
	}
	return out
}

// ── CRDTs ──────────────────────────────────────────────────────────────

func orsetMerge(b *testing.B, size int) {
	r := rand.New(rand.NewSource(1))
	base := crdt.NewORSet[int]("a")
	other := crdt.NewORSet[int]("b")
	for i := 0; i < size; i++ {
		base.Add(r.Intn(size))
		other.Add(r.Intn(size))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The copy recreates a fresh merge target but is not the
		// operation under test — keep it off the clock.
		b.StopTimer()
		s := base.Copy()
		b.StartTimer()
		s.Merge(other)
	}
}

func gcounterMerge(b *testing.B) {
	a := crdt.NewGCounter("a")
	other := crdt.NewGCounter("b")
	a.Inc(100)
	other.Inc(200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Merge(other)
	}
}

func opORSetApply(b *testing.B) {
	s := crdt.NewOpORSet[int]("a")
	ops := make([]crdt.AddOp[int], 1000)
	src := crdt.NewOpORSet[int]("b")
	for i := range ops {
		ops[i] = src.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Apply(ops[i%len(ops)])
	}
}

func rgaInsert(b *testing.B) {
	r := crdt.NewRGA[rune]("a")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Insert(r.Len(), 'x')
	}
}

// ── OT ─────────────────────────────────────────────────────────────────

func otTransform(b *testing.B) {
	a := ot.InsertOp(5, "x", "s1")
	d := ot.DeleteOp(2, 4, "s2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ot.Transform(a, d)
	}
}

// otJupiterEditing and rgaEditing compare the two convergence techniques
// for sequences on the same editing pattern: N sequential inserts at
// random positions, with one remote op transformed/integrated per local
// edit.
func otJupiterEditing(b *testing.B) {
	srv := ot.NewServer("")
	cl := ot.NewClient("c", "", 0)
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		docLen := len(cl.Doc())
		m, ok := cl.Insert(r.Intn(docLen+1), "x")
		if ok {
			bm := srv.Submit(m)
			if m2, ok2 := cl.Receive(bm); ok2 {
				cl.Receive(srv.Submit(m2))
			}
		}
	}
}

func rgaEditing(b *testing.B) {
	doc := crdt.NewRGA[rune]("c")
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc.Insert(r.Intn(doc.Len()+1), 'x')
	}
}

// ── Clocks ─────────────────────────────────────────────────────────────

func vectorClockCompare(b *testing.B) {
	v1 := clock.Vector{"a": 1, "b": 2, "c": 3}
	v2 := clock.Vector{"a": 2, "b": 1, "c": 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v1.Compare(v2)
	}
}

// denseClockCompare measures the interned flat-slice representation on
// the same clocks as vectorClockCompare (the map form stays the
// canonical benchmark; this quantifies the hot-path win).
func denseClockCompare(b *testing.B) {
	table := clock.NewNodeTable()
	d1 := clock.DenseFromVector(table, clock.Vector{"a": 1, "b": 2, "c": 3})
	d2 := clock.DenseFromVector(table, clock.Vector{"a": 2, "b": 1, "c": 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d1.Compare(d2)
	}
}

func dvvSiblingAdd(b *testing.B) {
	var s clock.Siblings[int]
	ctx := clock.NewVector()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(clock.MintDVV("n", ctx, uint64(i)), i)
		ctx = s.Context()
	}
}

func hlcNow(b *testing.B) {
	var t int64
	h := clock.NewHLC("n", func() int64 { t++; return t })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Now()
	}
}

// ── Storage ────────────────────────────────────────────────────────────

func merkleUpdate(b *testing.B) {
	m := storage.NewMerkle(12)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Update(keys[i%len(keys)], uint64(i))
	}
}

// divergentPair builds two 10k-key trees differing in a single key —
// the near-convergence reconciliation workload.
func divergentPair(depth int) (*storage.Merkle, *storage.Merkle) {
	x, y := storage.NewMerkle(depth), storage.NewMerkle(depth)
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("key-%d", i)
		x.Update(k, uint64(i))
		y.Update(k, uint64(i))
	}
	y.Update("key-42", 999)
	return x, y
}

func merkleDiff(b *testing.B) {
	x, y := divergentPair(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = storage.DiffLeaves(x, y)
	}
}

// merkleDescend measures the top-down descent the gossip store uses in
// place of the flat leaf exchange merkleDiff models.
func merkleDescend(b *testing.B) {
	x, y := divergentPair(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs := []storage.HashPair{x.RootPair()}
		side := y
		otherSide := x
		for len(pairs) > 0 {
			pairs, _ = side.Descend(pairs)
			side, otherSide = otherSide, side
		}
	}
}

func kvPut(b *testing.B) {
	kv := storage.NewKV()
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	val := []byte("0123456789abcdef")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv.Put(keys[i%len(keys)], val, nil)
	}
}

func kvGet(b *testing.B) {
	kv := storage.NewKV()
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		kv.Put(keys[i], []byte("v"), nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv.Get(keys[i%len(keys)])
	}
}

// ── Workload ───────────────────────────────────────────────────────────

func zipfianNext(b *testing.B) {
	z := workload.NewZipfian(100000, 0.99)
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Next(r)
	}
}
