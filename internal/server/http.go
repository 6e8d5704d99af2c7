package server

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/lsm"
)

// startHTTP binds the metrics/health listener and serves in the
// background until Close.
func (s *Server) startHTTP(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: http listen %s: %w", addr, err)
	}
	s.httpLn = ln
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.serveMetrics)
	mux.HandleFunc("/healthz", s.serveHealthz)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return nil
}

// serveHealthz reports the node's Status: its own liveness (trivially
// true if it answered) and the phi-accrual verdict on every peer. Killing
// a node shows up here on the survivors within a few heartbeat intervals.
func (s *Server) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.status())
}

// serveMetrics renders Prometheus text exposition format from the
// transport stats, request counters/latency, and failure-detector
// gauges. Hand-rendered — the repo deliberately has no dependencies —
// but the format is the standard one, so any Prometheus scrapes it.
func (s *Server) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	status := s.status()
	st := s.tcp.Stats()

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("ec_transport_messages_sent_total", "Protocol messages sent by local actors.", st.MessagesSent)
	counter("ec_transport_messages_delivered_total", "Protocol messages delivered to local actors.", st.MessagesDelivered)
	counter("ec_transport_messages_dropped_total", "Messages dropped (unknown destination, crashed node, full peer queue).", st.MessagesDropped)
	counter("ec_transport_frames_sent_total", "Writes to peer links, each of one frame or more.", st.FramesSent)
	counter("ec_transport_frames_received_total", "Reads from peer links, each of every complete frame buffered.", st.FramesReceived)
	counter("ec_transport_envelopes_sent_total", "Protocol envelopes written to peer links (several may share a write).", st.EnvelopesSent)
	counter("ec_transport_envelopes_received_total", "Protocol envelopes read from peer links.", st.EnvelopesReceived)
	counter("ec_transport_bytes_sent_total", "Bytes written to peer links.", st.BytesSent)
	counter("ec_transport_bytes_received_total", "Bytes read from peer links.", st.BytesReceived)
	counter("ec_transport_reconnects_total", "Peer links re-established after failure.", st.Reconnects)
	framesSent := st.FramesSent
	if framesSent == 0 {
		framesSent = 1
	}
	fmt.Fprintf(&b, "# HELP ec_net_batch_size Mean envelopes per write to a peer link (fan-out batching efficiency).\n# TYPE ec_net_batch_size gauge\nec_net_batch_size %g\n",
		float64(st.EnvelopesSent)/float64(framesSent))

	s.statMu.Lock()
	fmt.Fprintf(&b, "# HELP ec_requests_total Client requests served, by operation.\n# TYPE ec_requests_total counter\n")
	for _, name := range s.reqCount.Names() {
		if op, ok := strings.CutPrefix(name, "server.requests."); ok {
			fmt.Fprintf(&b, "ec_requests_total{op=%q} %d\n", op, s.reqCount.Get(name))
		}
	}
	errs := s.reqCount.Get("server.request_errors")
	cnt := s.reqLat.Count()
	var p50, p99 time.Duration
	if cnt > 0 {
		p50, p99 = s.reqLat.Quantile(0.50), s.reqLat.Quantile(0.99)
	}
	s.statMu.Unlock()
	counter("ec_request_errors_total", "Client requests that failed.", errs)
	fmt.Fprintf(&b, "# HELP ec_request_seconds Client request latency quantiles.\n# TYPE ec_request_seconds summary\n")
	fmt.Fprintf(&b, "ec_request_seconds{quantile=\"0.5\"} %g\n", p50.Seconds())
	fmt.Fprintf(&b, "ec_request_seconds{quantile=\"0.99\"} %g\n", p99.Seconds())
	fmt.Fprintf(&b, "ec_request_seconds_count %d\n", cnt)

	if s.dur != nil {
		st := s.dur.log.Stats()
		counter("ec_wal_appends_total", "Records journaled to the write-ahead log.", st.Appends)
		counter("ec_wal_fsyncs_total", "fsync calls issued by the write-ahead log.", st.Syncs)
		counter("ec_wal_records_replayed_total", "WAL records replayed during crash recovery at boot.", s.dur.Replayed())
		counter("ec_wal_persist_failures_total", "Journal appends or durability waits that failed; the acks they gated were dropped.", s.dur.Failures())
		commits := st.GroupCommits
		if commits == 0 {
			commits = 1
		}
		fmt.Fprintf(&b, "# HELP ec_wal_group_commit_size Mean appends per committer fsync (group-commit efficiency).\n# TYPE ec_wal_group_commit_size gauge\nec_wal_group_commit_size %g\n",
			float64(st.GroupedAppends)/float64(commits))
		gauge("ec_wal_last_seq", "Sequence number of the newest journaled record.", s.dur.log.LastSeq())
		gauge("ec_wal_durable_seq", "Sequence number of the newest record on stable storage; acks wait for it.", s.dur.log.Durable())
		gauge("ec_wal_checkpoint_seq", "WAL sequence covered by the latest checkpoint snapshot.", s.dur.CheckpointSeq())
		gauge("ec_wal_disk_bytes", "On-disk footprint of the WAL segments.", uint64(s.dur.log.DiskBytes()))
	}

	if len(s.lsmEngines) > 0 {
		// Aggregate across the per-shard trees: operators care about the
		// node's disk footprint and compaction churn, not shard layout.
		var agg lsm.Stats
		for _, e := range s.lsmEngines {
			st := e.Stats()
			agg.SSTables += st.SSTables
			agg.DiskBytes += st.DiskBytes
			agg.MemtableBytes += st.MemtableBytes
			agg.Flushes += st.Flushes
			agg.FlushErrors += st.FlushErrors
			agg.Compactions += st.Compactions
			agg.BloomMisses += st.BloomMisses
			agg.BlockReads += st.BlockReads
			agg.ReadErrors += st.ReadErrors
		}
		gauge("ec_lsm_sstables", "Immutable SSTable runs across all storage shards.", uint64(agg.SSTables))
		gauge("ec_lsm_disk_bytes", "On-disk footprint of the LSM storage engine.", uint64(agg.DiskBytes))
		gauge("ec_lsm_memtable_bytes", "Resident size of the mutable memtables.", uint64(agg.MemtableBytes))
		counter("ec_lsm_flushes_total", "Memtable flushes to SSTables.", agg.Flushes)
		counter("ec_lsm_flush_errors_total", "Memtable flushes that failed; the memtable is kept and the flush retried after another threshold's worth of writes.", agg.FlushErrors)
		counter("ec_lsm_compactions_total", "Size-tiered SSTable merges.", agg.Compactions)
		counter("ec_lsm_bloom_misses_total", "Point lookups a bloom filter excluded a table from.", agg.BloomMisses)
		counter("ec_lsm_block_reads_total", "Data blocks fetched from SSTables.", agg.BlockReads)
		counter("ec_lsm_read_errors_total", "IO or checksum errors swallowed on the LSM read path.", agg.ReadErrors)
	}

	if q := s.qnode; q != nil {
		t := &q.Transfer
		fmt.Fprintf(&b, "# HELP ec_transfer_bytes_total Bytes moved by elasticity arc transfers, by direction.\n# TYPE ec_transfer_bytes_total counter\n")
		fmt.Fprintf(&b, "ec_transfer_bytes_total{direction=\"in\"} %d\n", t.BytesIn.Load())
		fmt.Fprintf(&b, "ec_transfer_bytes_total{direction=\"out\"} %d\n", t.BytesOut.Load())
		counter("ec_transfer_ranges_total", "Arc ranges this node finished pulling.", t.RangesDone.Load())
		counter("ec_transfer_throttle_waits_total", "Transfer batches delayed by the source's token bucket.", t.ThrottleWaits.Load())
		counter("ec_transfer_gated_reads_total", "Replica reads refused because the key's range was still in flight.", t.GatedReads.Load())
		counter("ec_transfer_not_owner_total", "Replica writes refused for stale epoch ownership.", t.NotOwnerSeen.Load())
		counter("ec_read_repairs_total", "Versions pushed to replicas a read found behind, at its completion or on a late answer.", atomic.LoadUint64(&q.ReadRepairsSent))
		counter("ec_read_hedges_total", "Replicas a read asked because an answer was still missing after the hedge delay.", q.ReadHedges.Load())
		gauge("ec_ring_epoch", "Membership epoch this node has installed.", status.Epoch)
		gauge("ec_ring_ok", "Whether the node is a fully serving member (0 while catching-up, draining, or left).", bit(status.OK))
		gauge("ec_transfer_ranges_pending", "Arc ranges still in flight for the open epoch.", uint64(status.TransferTotal-status.TransferDone))
	}

	if status.GeoStalenessMs != nil { // a zoned quorum node
		fmt.Fprintf(&b, "# HELP ec_geo_staleness_ms Measured replication staleness behind each remote zone (from the cross-zone replicator's high-water timestamps).\n# TYPE ec_geo_staleness_ms gauge\n")
		for _, z := range sortedKeys(status.GeoStalenessMs) {
			fmt.Fprintf(&b, "ec_geo_staleness_ms{zone=%q} %d\n", z, status.GeoStalenessMs[z])
		}
		gauge("ec_geo_queue_depth", "Entries retained for asynchronous cross-zone shipment.", uint64(status.GeoQueue))
		counter("ec_geo_shipped_total", "Entries shipped to cross-zone replicas by the async replicator.", atomic.LoadUint64(&s.qnode.GeoShipped))
		counter("ec_geo_acked_total", "Cross-zone shipments acknowledged by their receivers.", atomic.LoadUint64(&s.qnode.GeoAcked))
		counter("ec_geo_resends_total", "Cross-zone batches re-shipped after an ack timeout.", atomic.LoadUint64(&s.qnode.GeoResends))
		counter("ec_geo_beacons_total", "Idle high-water beacons sent to remote zones.", atomic.LoadUint64(&s.qnode.GeoBeacons))

		// Worst heartbeat p99 toward each zone: the latency-class view the
		// SLA picker trades against.
		zoneRTT := map[string]float64{}
		for _, p := range status.Peers {
			if rtt := p.RTTp99Ms / 1e3; rtt > zoneRTT[p.Zone] {
				zoneRTT[p.Zone] = rtt
			}
		}
		fmt.Fprintf(&b, "# HELP ec_zone_rtt_seconds Worst peer heartbeat round-trip p99 per zone.\n# TYPE ec_zone_rtt_seconds gauge\n")
		for _, z := range sortedKeys(zoneRTT) {
			fmt.Fprintf(&b, "ec_zone_rtt_seconds{zone=%q} %g\n", z, zoneRTT[z])
		}
	}

	if sts := s.tcp.ShardStats(s.cfg.ID); len(sts) > 0 {
		fmt.Fprintf(&b, "# HELP ec_shard_queue_depth Events waiting in each execution shard's mailbox.\n# TYPE ec_shard_queue_depth gauge\n")
		for i, st := range sts {
			fmt.Fprintf(&b, "ec_shard_queue_depth{shard=\"%d\"} %d\n", i, st.Depth)
		}
		fmt.Fprintf(&b, "# HELP ec_shard_ops_total Messages and calls processed by (or fast-handled for) each execution shard.\n# TYPE ec_shard_ops_total counter\n")
		for i, st := range sts {
			fmt.Fprintf(&b, "ec_shard_ops_total{shard=\"%d\"} %d\n", i, st.Ops)
		}
	}

	fmt.Fprintf(&b, "# HELP ec_peer_phi Phi-accrual suspicion of each peer (threshold %g).\n# TYPE ec_peer_phi gauge\n", s.policy.PhiThreshold)
	for _, p := range status.Peers {
		fmt.Fprintf(&b, "ec_peer_phi{peer=%q} %g\n", p.ID, p.Phi)
	}
	fmt.Fprintf(&b, "# HELP ec_peer_suspect Whether phi exceeds the threshold.\n# TYPE ec_peer_suspect gauge\n")
	for _, p := range status.Peers {
		fmt.Fprintf(&b, "ec_peer_suspect{peer=%q} %d\n", p.ID, bit(p.Suspect))
	}
	fmt.Fprintf(&b, "# HELP ec_peer_rtt_seconds Heartbeat round-trip p99 per peer.\n# TYPE ec_peer_rtt_seconds gauge\n")
	for _, p := range status.Peers {
		fmt.Fprintf(&b, "ec_peer_rtt_seconds{peer=%q} %g\n", p.ID, p.RTTp99Ms/1e3)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write([]byte(b.String()))
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// bit is 1 for true, 0 for false.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
