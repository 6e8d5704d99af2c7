package server

import (
	"encoding/json"
	"time"

	"repro/internal/quorum"
)

// Status is what a node reports about itself: the answer of the "status"
// op, the body of /healthz, and the source of /metrics' ring, transfer,
// geo and peer series. A quorum node's State is "catching-up" while it
// streams its arcs in as a joiner, "draining" and then "left" through a
// decommission, "ok" otherwise; a gossip or session node has none, and
// reports its boot ring.
type Status struct {
	ID      string       `json:"id"`
	Model   string       `json:"model"`
	OK      bool         `json:"ok"`
	State   string       `json:"state,omitempty"`
	Epoch   uint64       `json:"epoch,omitempty"`
	Uptime  string       `json:"uptime"`
	Peers   []PeerStatus `json:"peers"`
	Suspect []string     `json:"suspected_peers"`
	// Zone is the node's declared zone; GeoStalenessMs the measured
	// replication lag behind each remote zone, non-nil exactly on a zoned
	// quorum node; GeoQueue the entries retained for asynchronous
	// cross-zone shipment.
	Zone           string           `json:"zone,omitempty"`
	GeoStalenessMs map[string]int64 `json:"geo_staleness_ms,omitempty"`
	GeoQueue       int              `json:"geo_queue,omitempty"`
	Members        []string         `json:"members"`
	// Shards is a quorum node's execution shard count: its shard loops.
	Shards        int `json:"shards,omitempty"`
	TransferDone  int `json:"transfer_done"`
	TransferTotal int `json:"transfer_total"`
	PendingHints  int `json:"pending_hints"`
	// ReplayedByLane counts the WAL records boot recovery replayed on each
	// lane: index 0 is the serial lane, 1+k shard k. Empty without a DataDir.
	ReplayedByLane []uint64 `json:"replayed_by_lane,omitempty"`
}

// PeerStatus is one peer's entry in a Status: this node's failure-detector
// opinion of it and the heartbeat round trip measured to it.
type PeerStatus struct {
	ID       string  `json:"id"`
	Zone     string  `json:"zone,omitempty"`
	Phi      float64 `json:"phi"`
	Suspect  bool    `json:"suspect"`
	RTTp50Ms float64 `json:"rtt_p50_ms"`
	RTTp99Ms float64 `json:"rtt_p99_ms"`
}

// status builds the node's Status. A quorum node's epoch and state are
// loaded once, and what depends on them is read against that epoch; each
// peer's verdict and round trip are measured once, in sorted peer order.
func (s *Server) status() Status {
	now := s.tcp.Now()
	st := Status{ID: s.cfg.ID, Model: s.cfg.Model, OK: true, Uptime: now.Round(time.Millisecond).String(), Zone: s.cfg.Zone}
	cur := s.ring
	if q := s.qnode; q != nil {
		ep, mode := q.State()
		cur = ep.Ring
		st.State, st.Epoch, st.OK = mode, ep.Seq, mode == quorum.StateOK
		st.TransferDone, st.TransferTotal = q.CatchUpProgress(ep.Seq)
		st.PendingHints, st.Shards = q.PendingHints(), q.Shards()
		if len(cur.Zones()) > 0 {
			st.GeoStalenessMs = q.GeoStaleness()
			st.GeoQueue, _ = q.GeoQueue()
		}
	}
	if s.dur != nil {
		st.ReplayedByLane = s.dur.LaneReplayed()
	}
	st.Members = cur.Members()
	for _, peer := range st.Members {
		if peer == s.cfg.ID {
			continue
		}
		p := PeerStatus{
			ID:       peer,
			Zone:     cur.ZoneOf(peer),
			Phi:      s.dir.Phi(s.cfg.ID, peer, now),
			RTTp50Ms: float64(s.tcp.RTTQuantile(peer, 0.50)) / float64(time.Millisecond),
			RTTp99Ms: float64(s.tcp.RTTQuantile(peer, 0.99)) / float64(time.Millisecond),
		}
		p.Suspect = p.Phi > s.policy.PhiThreshold
		st.Peers = append(st.Peers, p)
		if p.Suspect {
			st.Suspect = append(st.Suspect, peer)
		}
	}
	return st
}

// statusOp answers the "status" op with the Status as JSON.
func (s *Server) statusOp(Request) Response {
	b, _ := json.Marshal(s.status()) // nothing in a Status fails to encode: its floats are finite
	return Response{OK: true, Value: b}
}
