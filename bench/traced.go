package main

import (
	"fmt"
	"path/filepath"
	"runtime"
)

// runTraced measures the per-layer metrics: one round of paced, closed
// and traced phases on one cluster, counter deltas from /metrics over
// the traced phase, then the isolated layer probes. Spans go to
// <out>/<workload>.trace.json.
func runTraced(cfg runConfig, dataRoot string, res *result) error {
	_, phase := phasePlan(cfg)
	wl := cfg.wl
	seed := cfg.seed * 100
	tr := newTracer()
	root := tr.begin(0, "run."+wl.name)

	sp := tr.begin(root, "phase.setup")
	rd, err := startRound(cfg, dataRoot, 0)
	tr.end(sp)
	if err != nil {
		return err
	}
	lg := rd.lg
	if rd.retried > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("FLAG the preload repeated %d puts that timed out", rd.retried))
	}

	sp = tr.begin(root, "phase.paced")
	pr, err := lg.paced(seed<<8|2, phase, 0)
	tr.end(sp)
	if err != nil {
		rd.close()
		return err
	}

	runtime.GC()
	sp = tr.begin(root, "phase.closed")
	var cr closedResult
	cw := watch(&lg.done, func() { cr = lg.closed(seed<<8|3, phase, 0) })
	tr.end(sp)
	afterClosed, err := rd.cl.scrape()
	if err != nil {
		rd.close()
		return err
	}

	runtime.GC()
	sp = tr.begin(root, "phase.traced")
	lg.tr = tr
	var tc closedResult
	tw := watch(&lg.done, func() { tc = lg.closed(seed<<8|4, phase, sp) })
	lg.tr = nil
	tr.end(sp)
	afterTraced, err := rd.cl.scrape()
	if err != nil {
		rd.close()
		return err
	}

	sp = tr.begin(root, "phase.verify")
	err = rd.finish()
	tr.end(sp)
	res.count(lg)
	if err != nil {
		return err
	}
	if len(cw) == 0 || len(tw) == 0 {
		return fmt.Errorf("closed phase completed no operation")
	}

	sp = tr.begin(root, "phase.probes")
	probes, err := runProbes(wl, lg, dataRoot, seed, tr, sp)
	tr.end(sp)
	if err != nil {
		return err
	}
	tr.end(root)
	if err := tr.write(filepath.Join(cfg.outDir, wl.name+".trace.json"), wl.name, cfg.seed, res.Host); err != nil {
		return err
	}

	m := res.Metrics
	for name, v := range probes {
		m[name] = v
	}
	m["loadgen.late_p50_ms"] = pctl(pr.late, 0.5)
	m["loadgen.late_max_ms"] = pr.late[len(pr.late)-1]
	m["loadgen.paced_p50_ms"] = pctl(pr.latency, 0.5)
	m["loadgen.paced_p90_ms"] = pctl(pr.latency, 0.9)
	m["loadgen.paced_p99_ms"] = pctl(pr.latency, 0.99)
	m["loadgen.paced_p999_ms"] = tail(pr.latency)
	m["loadgen.closed_p50_ms"] = pctl(cr.latency, 0.5)
	m["loadgen.closed_p99_ms"] = pctl(cr.latency, 0.99)
	m["loadgen.closed_max_gap_ms"] = cr.maxGapMs
	m["loadgen.closed_mean_ops_s"] = float64(cr.ops) / cr.elapsed.Seconds()
	var rates, cpus []float64
	for _, w := range cw {
		rates = append(rates, w.opsPerSec)
		cpus = append(cpus, w.cpuUsOp)
	}
	m["loadgen.closed_ops_s"] = best(rates, true)
	m["loadgen.closed_cpu_us_per_op"] = best(cpus, false)
	for _, name := range []string{"loadgen.paced_p50_ms", "loadgen.paced_p90_ms", "loadgen.paced_p99_ms", "loadgen.paced_p999_ms"} {
		res.Samples[name] = pr.ops
	}
	res.Samples["loadgen.closed_p50_ms"], res.Samples["loadgen.closed_p99_ms"] = cr.ops, cr.ops
	if m["loadgen.late_p50_ms"] > 0.1 {
		res.Notes = append(res.Notes, fmt.Sprintf("generator ran late (p50 %.3f ms > 0.1 ms): paced latencies include the lateness", m["loadgen.late_p50_ms"]))
	}
	// Overhead compares the two phases the way loadgen.closed_ops_s is
	// measured, or the host's slow spells would swamp it.
	var traced []float64
	for _, w := range tw {
		traced = append(traced, w.opsPerSec)
	}
	m["trace.overhead_pct"] = 100 * (1 - best(traced, true)/m["loadgen.closed_ops_s"])

	// Counters: deltas over the traced phase, summed over the three
	// nodes, per client operation.
	ops := float64(tc.ops)
	delta := func(prefix string) float64 { return sum(afterTraced, prefix) - sum(afterClosed, prefix) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["server.shard_ops_per_op"] = delta("ec_shard_ops_total") / ops
	m["transport.peer_msgs_per_op"] = delta("ec_transport_envelopes_sent_total") / ops
	m["transport.peer_bytes_per_op"] = delta("ec_transport_bytes_sent_total") / ops
	m["transport.peer_frames_per_op"] = delta("ec_transport_frames_sent_total") / ops
	m["transport.envelopes_per_frame"] = ratio(delta("ec_transport_envelopes_sent_total"), delta("ec_transport_frames_sent_total"))
	m["transport.dropped_msgs"] = delta("ec_transport_messages_dropped_total")
	m["transport.reconnects"] = delta("ec_transport_reconnects_total")
	m["wal.appends_per_op"] = delta("ec_wal_appends_total") / ops
	m["wal.fsyncs_per_op"] = delta("ec_wal_fsyncs_total") / ops
	m["wal.appends_per_fsync"] = ratio(delta("ec_wal_appends_total"), delta("ec_wal_fsyncs_total"))
	m["lsm.block_reads_per_get"] = ratio(delta("ec_lsm_block_reads_total"), float64(len(tc.getLat)))
	m["lsm.bloom_misses_per_get"] = ratio(delta("ec_lsm_bloom_misses_total"), float64(len(tc.getLat)))
	m["lsm.sstables"] = sum(afterTraced, "ec_lsm_sstables")
	m["lsm.flushes"] = sum(afterTraced, "ec_lsm_flushes_total")
	m["lsm.compactions"] = sum(afterTraced, "ec_lsm_compactions_total")
	m["lsm.disk_bytes_per_user_byte"] = sum(afterTraced, "ec_lsm_disk_bytes") / float64(nodes*lg.keys*wl.valueSize)
	m["resilience.suspect_peers"] = sum(afterClosed, "ec_peer_suspect")
	m["resilience.peer_rtt_ms"] = 1000 * sum(afterClosed, "ec_peer_rtt_seconds") / (nodes * (nodes - 1))

	res.Budget = budget(wl, cr, m)
	return nil
}

// part is one isolated layer cost in a budget line.
type part struct {
	name string
	ms   float64
}

// budget sets the closed-loop client's median latency per operation
// type against the isolated cost of each layer the operation crosses.
// The remainder is what no probe explains: loopback TCP, goroutine
// hand-offs, the server's dispatch and gateway, queueing. Reported, not
// asserted.
func budget(wl workload, cr closedResult, m map[string]float64) []string {
	frames := part{"client frames", (m["transport.frame_encode_ns"] + m["transport.frame_decode_ns"]) / 1e6}
	put := []part{frames, {"storage.kv_put", m["storage.kv_put_ns"] / 1e6}}
	get := []part{frames, {"storage.kv_get", m["storage.kv_get_ns"] / 1e6}}
	if wl.model == "quorum" {
		ringPart := part{"ring.replicas", m["ring.replicas_ns"] / 1e6}
		put = []part{frames, ringPart, {"quorum.loopback_put", m["quorum.loopback_put_us"] / 1e3}}
		get = []part{frames, ringPart, {"quorum.loopback_get", m["quorum.loopback_get_us"] / 1e3}}
	}
	// Only the layers this workload's cluster crosses: the probes time
	// the others too.
	if wl.durable {
		put = append(put, part{"wal.append", m["wal.append_us"] / 1e3})
	}
	if wl.engine == "lsm" {
		get = append(get, part{"lsm.get", m["lsm.get_us"] / 1e3})
	}
	var out []string
	for _, row := range []struct {
		kind  string
		lat   []float64
		parts []part
	}{{"put", cr.putLat, put}, {"get", cr.getLat, get}} {
		if len(row.lat) == 0 {
			continue
		}
		p50 := pctl(row.lat, 0.5)
		line := fmt.Sprintf("%s closed_p50 %.4f ms (%d samples) =", row.kind, p50, len(row.lat))
		rest := p50
		for _, p := range row.parts {
			line += fmt.Sprintf(" %s %.4f +", p.name, p.ms)
			rest -= p.ms
		}
		out = append(out, line+fmt.Sprintf(" unexplained %.4f", rest))
	}
	return out
}
