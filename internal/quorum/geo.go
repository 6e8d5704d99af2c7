package quorum

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/transport"
)

// Geo-replication: with Config.GeoAsync set, a write coordinator splits
// the preference list by zone. Replicas in the coordinator's own zone
// get synchronous replicaPuts and the client is acknowledged on that
// intra-zone sub-quorum (min(W, in-zone replicas)); replicas in other
// zones are fed by a per-peer replicator that retains entries until the
// remote side acknowledges them, shipping batched geoShip frames on a
// flush tick and resending on the quorum timeout — resumable across
// reconnects and partitions the way transfer.go's pull stream is. Every
// ship (and, when idle, a periodic beacon) carries the sender's
// wall-clock high-water timestamp; the receiver keeps the max per
// source zone, so "how stale is my view of zone Z" is a measured
// quantity (PBS-style) rather than an estimate — the number exported as
// ec_geo_staleness_ms and consulted by bounded-staleness SLA reads.
//
// Durability: an acked write is WAL-journaled on the intra-zone
// sub-quorum before the ack leaves, and the replicator retains it in
// memory until the cross-zone ack, so a cross-zone partition loses
// nothing — shipping resumes where the acked cursor stopped. The acked
// cursor is WAL-journaled (geoAckRec) so sequence numbering stays
// monotone across restarts; entries a crash takes down with the
// coordinator before shipping are re-delivered by anti-entropy, the
// same backstop that covers hinted handoff.

// geoShip carries a batch of retained entries (or, with no items, an
// idle high-water beacon) from a write coordinator to one cross-zone
// replica. Seq numbers the first item; items ack as a prefix.
type geoShip struct {
	Seq    uint64 // sequence of Items[0]; 0 with no items = beacon
	Zone   string // sender's zone
	HighTS int64  // sender wall-clock ms: everything older has shipped
	Items  []aeEntry
}

// geoShipAck acknowledges every shipped item with sequence <= Seq.
type geoShipAck struct {
	Seq uint64
}

// Size implements the sim bandwidth hook.
func (m geoShip) Size() int {
	n := len(m.Zone) + 16
	for _, e := range m.Items {
		n += len(e.Key)
		for _, s := range e.Entries {
			n += len(s.Value.Value) + 16*len(s.DVV.Context) + 16
		}
	}
	return n
}

// geoItem is one retained cross-zone entry awaiting remote ack.
type geoItem struct {
	key   string
	entry clock.SiblingEntry[record]
	ts    int64 // wall-clock ms at enqueue, the staleness bound it carries
}

// geoPeer is the replicator state for one cross-zone peer.
type geoPeer struct {
	queue     []geoItem
	base      uint64 // sequence of queue[0]
	acked     uint64 // highest acked sequence (WAL-journaled)
	inflight  int    // prefix of queue shipped and awaiting ack
	shippedAt time.Duration
}

// geoAckRec journals the per-peer acked cursor (see persist.go).
type geoAckRec struct {
	Peer string
	Seq  uint64
}

type geoFlushTag struct{}
type geoBeaconTag struct{}

func nowMs() int64 { return time.Now().UnixMilli() }

// splitGeo partitions a preference list into the coordinator-zone
// replicas (synchronous) and the cross-zone remainder (async). The
// coordinator itself always counts as local.
func (n *Node) splitGeo(prefs []string) (sync, async []string) {
	for _, p := range prefs {
		if p == n.id || n.cfg.Zones[p] == n.cfg.Zone {
			sync = append(sync, p)
		} else {
			async = append(async, p)
		}
	}
	return sync, async
}

// geoEnqueue retains one entry for a cross-zone peer. Runs on the
// write's shard goroutine; the serial-loop flush tick ships it.
func (n *Node) geoEnqueue(peer, key string, e clock.SiblingEntry[record]) {
	n.geoMu.Lock()
	if n.geoPeers == nil {
		n.geoPeers = make(map[string]*geoPeer)
	}
	g := n.geoPeers[peer]
	if g == nil {
		g = &geoPeer{}
		n.geoPeers[peer] = g
	}
	if len(g.queue) == 0 {
		g.base = g.acked + 1
	}
	g.queue = append(g.queue, geoItem{key: key, entry: e, ts: nowMs()})
	n.geoMu.Unlock()
}

// geoFlush is the periodic ship/retry tick (serial loop): each peer
// with a backlog gets its next batch, or a resend of the inflight
// prefix once the quorum timeout has elapsed without an ack.
func (n *Node) geoFlush(env transport.Env) {
	n.geoMu.Lock()
	peers := make([]string, 0, len(n.geoPeers))
	for p := range n.geoPeers {
		peers = append(peers, p)
	}
	n.geoMu.Unlock()
	sort.Strings(peers)
	for _, p := range peers {
		n.geoShipTo(env, p)
	}
	env.SetTimer(n.cfg.GeoFlushInterval, geoFlushTag{})
}

// geoShipTo ships the next batch to peer, or resends the inflight
// prefix after the retry deadline. Resends are safe: the receiver's
// installEntry dedups by dot and the ack covers the whole prefix.
func (n *Node) geoShipTo(env transport.Env, peer string) {
	n.geoMu.Lock()
	g := n.geoPeers[peer]
	if g == nil || len(g.queue) == 0 {
		n.geoMu.Unlock()
		return
	}
	now := env.Now()
	if g.inflight > 0 {
		if now-g.shippedAt < n.cfg.Timeout {
			n.geoMu.Unlock()
			return
		}
		atomic.AddUint64(&n.GeoResends, 1)
	} else {
		k := n.cfg.GeoBatch
		if k > len(g.queue) {
			k = len(g.queue)
		}
		g.inflight = k
		atomic.AddUint64(&n.GeoShipped, uint64(k))
	}
	g.shippedAt = now
	items := make([]aeEntry, g.inflight)
	for i := 0; i < g.inflight; i++ {
		it := g.queue[i]
		items[i] = aeEntry{Key: it.key, Entries: []clock.SiblingEntry[record]{it.entry}}
	}
	// The batch's high-water claim: when it drains the whole queue the
	// peer is caught up to "now"; otherwise only up to the last shipped
	// item's enqueue time.
	high := g.queue[g.inflight-1].ts
	if g.inflight == len(g.queue) {
		high = nowMs()
	}
	msg := geoShip{Seq: g.base, Zone: n.cfg.Zone, HighTS: high, Items: items}
	n.geoMu.Unlock()
	env.Send(peer, msg)
}

// geoBeacon keeps idle links fresh: peers with no backlog get an empty
// ship carrying the current wall clock, so a quiet zone's measured
// staleness stays near the beacon interval instead of growing without
// bound.
func (n *Node) geoBeacon(env transport.Env) {
	ts := nowMs()
	for _, peer := range n.ring() {
		if peer == n.id || n.cfg.Zones[peer] == n.cfg.Zone {
			continue
		}
		n.geoMu.Lock()
		g := n.geoPeers[peer]
		busy := g != nil && len(g.queue) > 0
		n.geoMu.Unlock()
		if busy {
			continue // the flush path is already advancing the high water
		}
		env.Send(peer, geoShip{Zone: n.cfg.Zone, HighTS: ts})
		atomic.AddUint64(&n.GeoBeacons, 1)
	}
	env.SetTimer(n.cfg.GeoBeaconInterval, geoBeaconTag{})
}

// handleGeoShip applies a cross-zone batch (or beacon) and advances the
// source zone's high-water timestamp.
func (n *Node) handleGeoShip(env transport.Env, from string, m geoShip) {
	dom := execDomain(env)
	for _, ae := range m.Items {
		for _, e := range ae.Entries {
			n.installEntry(dom, ae.Key, e)
		}
	}
	if m.Zone != "" {
		n.geoMu.Lock()
		if n.zoneHigh == nil {
			n.zoneHigh = make(map[string]int64)
		}
		if m.HighTS > n.zoneHigh[m.Zone] {
			n.zoneHigh[m.Zone] = m.HighTS
		}
		n.geoMu.Unlock()
	}
	if len(m.Items) > 0 {
		env.Send(from, geoShipAck{Seq: m.Seq + uint64(len(m.Items)) - 1})
	}
}

// handleGeoAck drops the acked prefix, journals the cursor, and ships
// the next batch immediately (no flush-tick latency between batches).
func (n *Node) handleGeoAck(env transport.Env, from string, m geoShipAck) {
	n.geoMu.Lock()
	g := n.geoPeers[from]
	if g == nil || m.Seq < g.base {
		n.geoMu.Unlock()
		return
	}
	drop := int(m.Seq - g.base + 1)
	if drop > len(g.queue) {
		drop = len(g.queue)
	}
	g.queue = append([]geoItem(nil), g.queue[drop:]...)
	g.base += uint64(drop)
	if m.Seq > g.acked {
		g.acked = m.Seq
	}
	g.inflight -= drop
	if g.inflight < 0 {
		g.inflight = 0
	}
	more := len(g.queue) > 0 && g.inflight == 0
	n.geoMu.Unlock()
	atomic.AddUint64(&n.GeoAcked, uint64(drop))
	n.persistRecord(execDomain(env), walRecord{GeoAck: &geoAckRec{Peer: from, Seq: m.Seq}})
	if more {
		n.geoShipTo(env, from)
	}
}

// geoRestoreAck re-applies a journaled cursor during replay so sequence
// numbering resumes monotonically after a restart.
func (n *Node) geoRestoreAck(peer string, seq uint64) {
	n.geoMu.Lock()
	if n.geoPeers == nil {
		n.geoPeers = make(map[string]*geoPeer)
	}
	g := n.geoPeers[peer]
	if g == nil {
		g = &geoPeer{}
		n.geoPeers[peer] = g
	}
	if seq > g.acked {
		g.acked = seq
		if len(g.queue) == 0 {
			g.base = g.acked + 1
		}
	}
	n.geoMu.Unlock()
}

// geoDropPeers discards replicator state for departed members (their
// arcs re-home through transfer and anti-entropy).
func (n *Node) geoDropPeers(members []string) {
	n.geoMu.Lock()
	for peer := range n.geoPeers {
		if !contains(members, peer) {
			delete(n.geoPeers, peer)
		}
	}
	n.geoMu.Unlock()
}

// GeoStaleness returns, per remote zone, the measured staleness in
// milliseconds: local wall clock minus the zone's last received
// high-water timestamp. Zones never heard from are absent.
func (n *Node) GeoStaleness() map[string]int64 {
	n.geoMu.Lock()
	defer n.geoMu.Unlock()
	if len(n.zoneHigh) == 0 {
		return nil
	}
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
