package main

import "repro/internal/wal"

// workload is one traffic mix against one cluster configuration. Every
// workload runs 3 nodes (quorum: N=3 R=2 W=2), the default resilience
// policy and the default shard count (GOMAXPROCS). README.md records
// why each was chosen and why its rate and key count are what they are.
type workload struct {
	name      string
	why       string
	model     string // "quorum" or "gossip"
	engine    string // "" (mem) or "lsm"
	durable   bool
	fsync     wal.SyncPolicy
	getFrac   float64
	valueSize int
	keys      int
	rate      int // paced phase: ops per second
	// noCheckpoint turns the background checkpointer off. At its default
	// 5 s, on one P, the three nodes' simultaneous state snapshots of
	// 16 MiB each block every actor loop for longer than the coordinator's
	// 500 ms quorum time-out, and one or two operations per run fail
	// (README.md, finding 2). A workload may not have failing operations.
	noCheckpoint bool
}

var workloads = []workload{
	{
		name:  "quorum_mem_mixed",
		why:   "50/50 get/put of 128 B on a memory-only quorum cluster: codec, TCP, coordinator fan-out, storage.KV and anti-entropy do all the work; wal and lsm are bypassed",
		model: "quorum", getFrac: 0.5, valueSize: 128, keys: 4000, rate: 500,
	},
	{
		name:  "quorum_sync_put",
		why:   "100% put of 128 B with WAL fsync=sync: WAL append, group commit and the ack barrier dominate; lsm and the read path are bypassed",
		model: "quorum", durable: true, fsync: wal.SyncEach, getFrac: 0, valueSize: 128, keys: 1000, rate: 200,
	},
	{
		name: "quorum_lsm_get",
		why:  "100% get of 4 KiB from 16 MiB per node on the LSM engine (twice its memtables, so reads go to SSTables): block reads and 4 KiB frames dominate; the lsm write path runs only in set-up",
		// fsync=none: the timed phases only read, so the policy acts on the
		// bulk load alone, and with fsync=batch (an fsync every 2 ms per
		// node) setup_s followed the host's disk: medians of 5.8, 7.6 and
		// 10.3 s in three sets of ten runs of the same code, against a
		// bound of 25 % (README.md, finding 10).
		model: "quorum", engine: "lsm", durable: true, fsync: wal.SyncNone, getFrac: 1, valueSize: 4096, keys: 4200, rate: 300, noCheckpoint: true,
	},
	{
		name:  "gossip_mixed",
		why:   "50/50 get/put of 128 B served locally by node0 of a gossip cluster: the quorum coordinator is bypassed, so this is the single-hop floor of client, transport and server dispatch",
		model: "gossip", getFrac: 0.5, valueSize: 128, keys: 10000, rate: 1000,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef declares one reported metric. bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd is measured with tracing off, the same four on every
// workload. BENCHMARK.json repeats this table; bench_test.go keeps the
// two equal. Apart from the set-up time they are counts per operation,
// which do not move with the host's speed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.08},
	{"alloc_kb_per_op", "KiB", "lower", 0.08},
	{"peer_bytes_per_op", "B", "lower", 0.08},
}

// perLayer is measured by the traced run. The per-operation counters of
// a layer the workload bypasses read 0 (wal.*_per_* without a WAL,
// lsm.* counts on the memory engine, server.shard_ops_per_op on gossip);
// the isolated probes are timed on every workload (see runProbes).
var perLayer = []metricDef{
	{"loadgen.late_p50_ms", "ms", "lower", 0},
	{"loadgen.late_max_ms", "ms", "lower", 0},
	{"loadgen.paced_p50_ms", "ms", "lower", 0},
	{"loadgen.paced_p90_ms", "ms", "lower", 0},
	{"loadgen.paced_p99_ms", "ms", "lower", 0},
	{"loadgen.paced_p999_ms", "ms", "lower", 0},
	{"loadgen.closed_ops_s", "ops/s", "higher", 0},
	{"loadgen.closed_cpu_us_per_op", "us", "lower", 0},
	{"loadgen.closed_mean_ops_s", "ops/s", "higher", 0},
	{"loadgen.closed_p50_ms", "ms", "lower", 0},
	{"loadgen.closed_p99_ms", "ms", "lower", 0},
	{"loadgen.closed_max_gap_ms", "ms", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"server.shard_ops_per_op", "count", "lower", 0},
	{"transport.peer_msgs_per_op", "count", "lower", 0},
	{"transport.peer_bytes_per_op", "B", "lower", 0},
	{"transport.peer_frames_per_op", "count", "lower", 0},
	{"transport.envelopes_per_frame", "count", "higher", 0},
	{"transport.dropped_msgs", "count", "lower", 0},
	{"transport.reconnects", "count", "lower", 0},
	{"transport.frame_encode_ns", "ns", "lower", 0},
	{"transport.frame_decode_ns", "ns", "lower", 0},
	{"transport.frame_decode_allocs", "count", "lower", 0},
	{"ring.replicas_ns", "ns", "lower", 0},
	{"quorum.loopback_put_us", "us", "lower", 0},
	{"quorum.loopback_get_us", "us", "lower", 0},
	{"quorum.loopback_allocs_per_op", "count", "lower", 0},
	{"storage.kv_put_ns", "ns", "lower", 0},
	{"storage.kv_get_ns", "ns", "lower", 0},
	{"wal.append_us", "us", "lower", 0},
	{"wal.append2_us", "us", "lower", 0},
	{"wal.appends_per_op", "count", "lower", 0},
	{"wal.fsyncs_per_op", "count", "lower", 0},
	{"wal.appends_per_fsync", "count", "higher", 0},
	{"lsm.get_us", "us", "lower", 0},
	{"lsm.put_us", "us", "lower", 0},
	{"lsm.block_reads_per_get", "count", "lower", 0},
	{"lsm.bloom_misses_per_get", "count", "higher", 0},
	{"lsm.sstables", "count", "lower", 0},
	{"lsm.flushes", "count", "lower", 0},
	{"lsm.compactions", "count", "lower", 0},
	{"lsm.disk_bytes_per_user_byte", "B/B", "lower", 0},
	{"resilience.suspect_peers", "count", "lower", 0},
	{"resilience.peer_rtt_ms", "ms", "lower", 0},
}
