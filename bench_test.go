package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"regexp"
	"strings"
	"testing"

	"repro/internal/benchsuite"
	"repro/internal/experiments"
)

// ── Experiment benchmarks ──────────────────────────────────────────────
//
// One benchmark per experiment in DESIGN.md's index: each iteration runs
// the full experiment (a deterministic simulation) with a distinct seed
// and reports the wall cost of regenerating that table/figure. Run a
// single experiment's numbers with:
//
//	go test -bench=BenchmarkE2 -benchtime=1x -v
//
// and print the tables themselves with cmd/ecbench.

func benchExperiment(b *testing.B, run func(seed int64) experiments.Result) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res := run(int64(i + 1))
		if len(res.Tables) == 0 && len(res.Series) == 0 {
			b.Fatal("experiment produced no output")
		}
	}
}

func BenchmarkE1ConsistencyLatency(b *testing.B) {
	benchExperiment(b, experiments.E1ConsistencyLatency)
}

func BenchmarkE2PBS(b *testing.B) {
	benchExperiment(b, experiments.E2PBS)
}

func BenchmarkE3QuorumSweep(b *testing.B) {
	benchExperiment(b, experiments.E3QuorumSweep)
}

func BenchmarkE4AntiEntropy(b *testing.B) {
	benchExperiment(b, experiments.E4AntiEntropy)
}

func BenchmarkE5CRDT(b *testing.B) {
	benchExperiment(b, experiments.E5CRDT)
}

func BenchmarkE6ConflictResolution(b *testing.B) {
	benchExperiment(b, experiments.E6ConflictResolution)
}

func BenchmarkE7Partition(b *testing.B) {
	benchExperiment(b, experiments.E7Partition)
}

func BenchmarkE8SessionGuarantees(b *testing.B) {
	benchExperiment(b, experiments.E8SessionGuarantees)
}

func BenchmarkE9ReplicationThroughput(b *testing.B) {
	benchExperiment(b, experiments.E9ReplicationThroughput)
}

func BenchmarkE10SLA(b *testing.B) {
	benchExperiment(b, experiments.E10SLA)
}

func BenchmarkE11ChaosViolations(b *testing.B) {
	benchExperiment(b, experiments.E11ChaosViolations)
}

func BenchmarkE12Resilience(b *testing.B) {
	benchExperiment(b, experiments.E12Resilience)
}

// ── Micro-benchmarks ───────────────────────────────────────────────────
//
// CPU costs of the primitives the experiments lean on: CRDT merges (the
// ns/op panel of E5), clock comparisons, Merkle reconciliation, storage
// ops. The bodies live in internal/benchsuite — a single registry shared
// with `ecbench -bench`, which snapshots the suite into
// BENCH_baseline.json for cmd/benchcheck's regression watch. The
// wrappers below only preserve the canonical `go test -bench` names.

func runGroup(b *testing.B, name string) {
	b.Helper()
	group := benchsuite.Group(name)
	if len(group) == 0 {
		b.Fatalf("no benchsuite entry named %q", name)
	}
	for _, bm := range group {
		f := bm.F
		if bm.Skip != "" {
			reason := bm.Skip
			f = func(b *testing.B) { b.Skip(reason) }
		}
		if bm.Name == name {
			f(b)
		} else {
			b.Run(strings.TrimPrefix(bm.Name, name+"/"), f)
		}
	}
}

func BenchmarkE5CRDTMergeORSet(b *testing.B)    { runGroup(b, "BenchmarkE5CRDTMergeORSet") }
func BenchmarkE5CRDTMergeGCounter(b *testing.B) { runGroup(b, "BenchmarkE5CRDTMergeGCounter") }
func BenchmarkE5CRDTOpORSetApply(b *testing.B)  { runGroup(b, "BenchmarkE5CRDTOpORSetApply") }
func BenchmarkRGAInsert(b *testing.B)           { runGroup(b, "BenchmarkRGAInsert") }
func BenchmarkOTTransform(b *testing.B)         { runGroup(b, "BenchmarkOTTransform") }
func BenchmarkOTvsRGAEditing(b *testing.B)      { runGroup(b, "BenchmarkOTvsRGAEditing") }
func BenchmarkVectorClockCompare(b *testing.B)  { runGroup(b, "BenchmarkVectorClockCompare") }
func BenchmarkDenseClockCompare(b *testing.B)   { runGroup(b, "BenchmarkDenseClockCompare") }
func BenchmarkDVVSiblingAdd(b *testing.B)       { runGroup(b, "BenchmarkDVVSiblingAdd") }
func BenchmarkMerkleUpdate(b *testing.B)        { runGroup(b, "BenchmarkMerkleUpdate") }
func BenchmarkMerkleDiff(b *testing.B)          { runGroup(b, "BenchmarkMerkleDiff") }
func BenchmarkMerkleDescend(b *testing.B)       { runGroup(b, "BenchmarkMerkleDescend") }
func BenchmarkKVPut(b *testing.B)               { runGroup(b, "BenchmarkKVPut") }
func BenchmarkKVGet(b *testing.B)               { runGroup(b, "BenchmarkKVGet") }
func BenchmarkZipfianNext(b *testing.B)         { runGroup(b, "BenchmarkZipfianNext") }
func BenchmarkHLCNow(b *testing.B)              { runGroup(b, "BenchmarkHLCNow") }

// Networked-runtime primitives: the per-message framing cost of the TCP
// transport and the per-request placement cost of the consistent-hash
// ring (internal/transport, internal/ring).
func BenchmarkTransportFrameEncode(b *testing.B) { runGroup(b, "BenchmarkTransportFrameEncode") }
func BenchmarkTransportFrameDecode(b *testing.B) { runGroup(b, "BenchmarkTransportFrameDecode") }
func BenchmarkRingOwner(b *testing.B)            { runGroup(b, "BenchmarkRingOwner") }
func BenchmarkRingReplicas(b *testing.B)         { runGroup(b, "BenchmarkRingReplicas") }
func BenchmarkRingJoinDiff(b *testing.B)         { runGroup(b, "BenchmarkRingJoinDiff") }

// Durability primitives: the per-write cost of journaling under each
// fsync policy and the cold-start cost of crash recovery
// (internal/wal).
func BenchmarkWALAppend(b *testing.B)   { runGroup(b, "BenchmarkWALAppend") }
func BenchmarkWALRecovery(b *testing.B) { runGroup(b, "BenchmarkWALRecovery") }

// BenchmarkWALRecoveryParallel replays the same journal through
// ReplaySharded with 2/4/8 lanes — the parallel crash-recovery path a
// sharded quorum node boots through.
func BenchmarkWALRecoveryParallel(b *testing.B) { runGroup(b, "BenchmarkWALRecoveryParallel") }

// BenchmarkWALAppendConcurrent measures SyncEach appends with many
// goroutines in flight — the group-commit path (one committer fsync per
// batch of concurrent acked writes).
func BenchmarkWALAppendConcurrent(b *testing.B) { runGroup(b, "BenchmarkWALAppendConcurrent") }

// Disk-resident storage engine (internal/lsm): a scrambled-zipfian
// put/get mix whose working set spills far past the memtable (the bloom
// filters must keep negative lookups off the data blocks), and the cost
// of a full overwrite-flush-compact reclaim cycle.
func BenchmarkLSMPutGet(b *testing.B)     { runGroup(b, "BenchmarkLSMPutGet") }
func BenchmarkLSMCompaction(b *testing.B) { runGroup(b, "BenchmarkLSMCompaction") }

// BenchmarkGeoSLARead reads from a 3-zone cluster with injected
// cross-zone frame delay, one cell per SLA tier: the strong/eventual
// gap is the latency the geo tiers trade consistency for.
func BenchmarkGeoSLARead(b *testing.B) { runGroup(b, "BenchmarkGeoSLARead") }

// BenchmarkSaturation boots a 3-node cluster in-process and drives it
// open-loop at a fixed offered rate; the reported ops/s metric is the
// cluster's capacity through the full client fast path (pipelining,
// batched frames, concurrent dispatch, WAL group commit).
func BenchmarkSaturation(b *testing.B) { runGroup(b, "BenchmarkSaturation") }

// TestBenchmarkWrappersCoverSuite: every benchsuite entry must be
// reachable from a Benchmark* wrapper in this file, so `go test -bench .`
// and `ecbench -bench` measure the same set.
func TestBenchmarkWrappersCoverSuite(t *testing.T) {
	wrappers := benchmarkFuncNames(t)
	for _, bm := range benchsuite.All() {
		top := bm.Name
		if i := strings.IndexByte(top, '/'); i >= 0 {
			top = top[:i]
		}
		if !wrappers[top] {
			t.Errorf("benchsuite entry %q has no %s wrapper in bench_test.go", bm.Name, top)
		}
	}
}

// TestEveryExperimentHasABenchmark guards against silent drift between
// the experiment list and the benchmark list by name, not by count:
// every experiments.All() ID must have a BenchmarkE<n>... wrapper.
func TestEveryExperimentHasABenchmark(t *testing.T) {
	wrappers := benchmarkFuncNames(t)
	idRe := regexp.MustCompile(`^BenchmarkE(\d+)[A-Z]`)
	covered := map[string]bool{}
	for name := range wrappers {
		if m := idRe.FindStringSubmatch(name); m != nil {
			covered["E"+m[1]] = true
		}
	}
	for _, r := range experiments.All() {
		if !covered[r.ID] {
			t.Errorf("experiment %s (%s) has no Benchmark%s... wrapper in bench_test.go", r.ID, r.Name, r.ID)
		}
	}
}

// benchmarkFuncNames parses this file and returns the names of its
// top-level Benchmark* functions.
func benchmarkFuncNames(t *testing.T) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "bench_test.go", nil, 0)
	if err != nil {
		t.Fatalf("parsing bench_test.go: %v", err)
	}
	names := map[string]bool{}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Benchmark") {
			names[fd.Name.Name] = true
		}
	}
	return names
}
