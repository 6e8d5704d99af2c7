package quorum

import (
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/ring"
	"repro/internal/transport"
)

// Geo-replication: with Config.GeoAsync set, a write coordinator splits
// the preference list by zone. Replicas in the coordinator's own zone
// get synchronous replicaPuts and the client is acknowledged on that
// intra-zone sub-quorum (min(W, in-zone replicas)); replicas in other
// zones are fed by a per-peer replicator that retains entries until the
// remote side acknowledges them: the retained queue is the source of a
// stream (see stream.go) that a flush tick opens whenever there is a
// backlog and none is open. Every batch (and, when idle, a periodic
// beacon) carries the sender's wall-clock high-water stamp; the receiver
// keeps the max per source zone, so "how stale is my view of zone Z" is a
// measured quantity (PBS-style) rather than an estimate — the number
// exported as ec_geo_staleness_ms and consulted by bounded-staleness SLA
// reads.
//
// Durability: an acked write is WAL-journaled on the intra-zone
// sub-quorum before the ack leaves, and the replicator retains it in
// memory until the cross-zone ack, so a cross-zone partition loses
// nothing — shipping resumes where the acked cursor stopped. The acked
// cursor is WAL-journaled (geoAckRec) so it stays monotone across
// restarts; entries a crash takes down with the
// coordinator before shipping are re-delivered by anti-entropy, the
// same backstop that covers hinted handoff.

// geoStamp is a zone's high-water mark: everything the sender coordinated
// before HighTS has reached the receiver. It rides every geo batch, stamped
// so that it never passes an entry the batch does not carry, and travels
// alone as the idle beacon.
type geoStamp struct {
	Zone   string // sender's zone
	HighTS int64  // sender wall-clock ms
}

// geoItem is one retained cross-zone entry awaiting remote ack.
type geoItem struct {
	key   string
	entry clock.SiblingEntry[record]
	ts    int64 // wall-clock ms at enqueue, the staleness bound it carries
}

// geoPeer is the replicator state for one cross-zone peer: what it has yet
// to acknowledge, oldest first, and how many entries it has acknowledged
// in all (WAL-journaled).
type geoPeer struct {
	queue []geoItem
	acked uint64
}

// geoAckRec journals the per-peer acked cursor (see persist.go).
type geoAckRec struct {
	Peer string
	Seq  uint64
}

type geoFlushTag struct{}
type geoBeaconTag struct{}

// geoFlushInterval paces the tick that opens a stream to a peer with a
// backlog, geoBeaconInterval the idle high-water beacons.
const (
	geoFlushInterval  = 20 * time.Millisecond
	geoBeaconInterval = 250 * time.Millisecond
)

func nowMs() int64 { return time.Now().UnixMilli() }

// geoPeerLocked returns (creating) peer's replicator state. Caller holds
// geoMu.
func (n *Node) geoPeerLocked(peer string) *geoPeer {
	g := n.geoPeers[peer]
	if g == nil {
		g = &geoPeer{}
		n.geoPeers[peer] = g
	}
	return g
}

// geoEnqueue retains one entry for a cross-zone peer. Runs on the
// write's shard goroutine; the serial-loop flush tick ships it.
func (n *Node) geoEnqueue(peer, key string, e clock.SiblingEntry[record]) {
	n.geoMu.Lock()
	g := n.geoPeerLocked(peer)
	g.queue = append(g.queue, geoItem{key: key, entry: e, ts: nowMs()})
	n.geoMu.Unlock()
}

// geoFlush is the periodic tick (serial loop): each peer with a backlog
// and no stream open gets one, which then drains the queue at the speed
// the peer acknowledges.
func (n *Node) geoFlush(env transport.Env) {
	_, backlog := n.GeoQueue()
	for _, p := range sortedKeys(backlog) {
		if n.streamTo(p, streamGeo, 0) == nil {
			n.openStream(env, p, streamID{streamGeo, n.mintStream()}, 0, n.geoSource(p))
		}
	}
	env.SetTimer(geoFlushInterval, geoFlushTag{})
}

// geoSource ships the head of peer's retained queue, and on ack drops it
// and journals the cursor.
func (n *Node) geoSource(peer string) source {
	next := func(budget int) shipBatch {
		n.geoMu.Lock()
		defer n.geoMu.Unlock()
		queue := n.geoPeerLocked(peer).queue
		var f fill
		for _, it := range queue {
			if f.add(budget, it.key, []clock.SiblingEntry[record]{it.entry}) {
				break
			}
		}
		k := len(f.entries)
		atomic.AddUint64(&n.GeoShipped, uint64(k))
		// The batch's high-water claim: when it drains the whole queue the
		// peer is caught up to "now"; otherwise only up to the last shipped
		// item's enqueue time.
		stamp := geoStamp{Zone: n.cfg.Zone, HighTS: nowMs()}
		if k < len(queue) {
			stamp.HighTS = queue[k-1].ts
		}
		return shipBatch{Entries: f.entries, Done: k == len(queue), Stamp: stamp}
	}
	acked := func(env transport.Env, entries []aeEntry) {
		n.geoMu.Lock()
		g := n.geoPeerLocked(peer)
		drop := min(len(entries), len(g.queue))
		g.queue = append([]geoItem(nil), g.queue[drop:]...)
		g.acked += uint64(drop)
		cursor := g.acked
		n.geoMu.Unlock()
		atomic.AddUint64(&n.GeoAcked, uint64(drop))
		n.persistRecord(env.Domain(), walRecord{GeoAck: &geoAckRec{Peer: peer, Seq: cursor}})
	}
	return source{next: next, acked: acked}
}

// geoBeacon keeps idle links fresh: peers with no backlog get a bare
// stamp carrying the current wall clock, so a quiet zone's measured
// staleness stays near the beacon interval instead of growing without
// bound.
func (n *Node) geoBeacon(env transport.Env) {
	ts := nowMs()
	_, backlog := n.GeoQueue()
	ep := n.epoch.Load()
	for _, peer := range ep.Ring.Members() {
		if peer == n.id || ep.Ring.ZoneOf(peer) == n.cfg.Zone {
			continue
		}
		if backlog[peer] > 0 {
			continue // the stream's batches are already advancing the high water
		}
		env.Send(peer, geoStamp{Zone: n.cfg.Zone, HighTS: ts})
		atomic.AddUint64(&n.GeoBeacons, 1)
	}
	env.SetTimer(geoBeaconInterval, geoBeaconTag{})
}

// noteZoneHigh advances the source zone's high-water timestamp: the geo
// receive hook, and all there is to receiving a beacon.
func (n *Node) noteZoneHigh(m geoStamp) {
	if m.Zone == "" {
		return
	}
	n.geoMu.Lock()
	if m.HighTS > n.zoneHigh[m.Zone] {
		n.zoneHigh[m.Zone] = m.HighTS
	}
	n.geoMu.Unlock()
}

// geoRestoreAck re-applies a journaled cursor during replay so the count
// resumes monotonically after a restart.
func (n *Node) geoRestoreAck(peer string, seq uint64) {
	n.geoMu.Lock()
	if g := n.geoPeerLocked(peer); seq > g.acked {
		g.acked = seq
	}
	n.geoMu.Unlock()
}

// GeoStaleness returns, per remote zone, the measured staleness in
// milliseconds: local wall clock minus the zone's last received
// high-water timestamp. Zones never heard from are absent; the map is
// never nil.
func (n *Node) GeoStaleness() map[string]int64 {
	n.geoMu.Lock()
	defer n.geoMu.Unlock()
	now := nowMs()
	out := make(map[string]int64, len(n.zoneHigh))
	for z, h := range n.zoneHigh {
		d := now - h
		if d < 0 {
			d = 0
		}
		out[z] = d
	}
	return out
}

// worstStaleness is the worst of GeoStaleness's figures across the remote
// zones ep names, without the map: 0 when no zone is remote, -1 when one
// has no measurement yet (the conservative answer while beacons warm up).
func (n *Node) worstStaleness(ep *ring.Epoch) int64 {
	n.geoMu.Lock()
	defer n.geoMu.Unlock()
	now, worst := nowMs(), int64(0)
	for _, z := range ep.Ring.Zones() {
		if z == n.cfg.Zone {
			continue
		}
		h, ok := n.zoneHigh[z]
		if !ok {
			return -1
		}
		worst = max(worst, now-h)
	}
	return worst
}

// GeoQueue returns the cross-zone replication backlog: total retained
// entries and the per-peer breakdown (the /healthz lag figure).
func (n *Node) GeoQueue() (total int, byPeer map[string]int) {
	n.geoMu.Lock()
	defer n.geoMu.Unlock()
	if len(n.geoPeers) == 0 {
		return 0, nil
	}
	byPeer = make(map[string]int, len(n.geoPeers))
	for p, g := range n.geoPeers {
		if len(g.queue) == 0 {
			continue
		}
		byPeer[p] = len(g.queue)
		total += len(g.queue)
	}
	return total, byPeer
}
