package server

import (
	"encoding/json"
	"time"

	"repro/internal/quorum"
	"repro/internal/transport"
)

// Live elasticity is the quorum node's own protocol (quorum/membership.go):
// the server hosts it, answers the admin operations that start and watch
// it, and dials the peers its epochs name (quorum.Config.OnPeers). Each
// admin operation is one call of a node entry point on the node's serial
// loop, through the ack barrier like any other invocation of the node.

// Node elasticity states, as reported by /healthz and `ecctl status`.
const (
	stateOK       = quorum.StateOK
	stateDraining = quorum.StateDraining
	stateLeft     = quorum.StateLeft
)

// RingStatus is the JSON payload of the "ring-status" client op, the
// view `ecctl status` and the elasticity tests poll.
type RingStatus struct {
	Node          string   `json:"node"`
	State         string   `json:"state"`
	Epoch         uint64   `json:"epoch"`
	Members       []string `json:"members"`
	TransferDone  int      `json:"transfer_done"`
	TransferTotal int      `json:"transfer_total"`
	PendingHints  int      `json:"pending_hints"`
	// Zone is the node's declared zone ("" = unzoned).
	Zone string `json:"zone,omitempty"`
	// Shards is the node's execution shard count: its shard loops.
	Shards int `json:"shards,omitempty"`
	// ReplayedByLane reports how many WAL records boot recovery replayed
	// on each parallel replay lane: index 0 is the serial lane, 1+k is
	// shard k. Empty when the node is not durable or replayed nothing.
	ReplayedByLane []uint64 `json:"replayed_by_lane,omitempty"`
}

func (s *Server) handleRingStatus() Response {
	if s.qnode == nil {
		return Response{Err: "elasticity requires the quorum model"}
	}
	ep, mode := s.qnode.State()
	done, total := s.qnode.CatchUpProgress(ep.Seq)
	st := RingStatus{
		Node: s.cfg.ID, State: mode, Epoch: ep.Seq, Members: ep.Ring.Members(),
		TransferDone: done, TransferTotal: total,
		PendingHints: s.qnode.PendingHints(), // lock-guarded: no loop to visit
		Zone:         s.cfg.Zone,
		Shards:       s.qnode.Shards(),
	}
	if s.dur != nil {
		st.ReplayedByLane = s.dur.LaneReplayed()
	}
	b, err := json.Marshal(st)
	if err != nil {
		return Response{Err: err.Error()}
	}
	return Response{OK: true, Value: b, Epoch: ep.Seq, State: mode}
}

// handleAddNode coordinates a join: Key is the new node's id, Value its
// peer-link address. OK is answered once every member (including the
// joiner) has acked the new epoch and the transfer has been released;
// catch-up progress is then polled via ring-status on the joiner.
func (s *Server) handleAddNode(req Request) Response {
	id, addr := req.Key, string(req.Value)
	if id == "" || addr == "" {
		return Response{Err: "add-node needs a node id (key) and peer address (value)"}
	}
	return s.membershipOp("add-node timed out waiting for member acks", func(env transport.Env, answer func(error)) {
		if err := s.qnode.Join(env, id, addr, req.Zone, func() { answer(nil) }); err != nil {
			answer(err)
		}
	})
}

// handleDecommission starts this node's graceful exit. OK means the
// drain is underway; the caller polls ring-status until State is
// "left" before stopping the process.
func (s *Server) handleDecommission() Response {
	return s.membershipOp("decommission timed out", func(env transport.Env, answer func(error)) {
		answer(s.qnode.Decommission(env))
	})
}

// membershipOp runs start, a call of a node entry point, as one
// invocation of the node's serial loop (through the ack barrier on a
// durable node, as a message is), and answers with what it reports, or
// with timeout after requestTimeout.
func (s *Server) membershipOp(timeout string, start func(env transport.Env, answer func(error))) Response {
	if s.qnode == nil {
		return Response{Err: "elasticity requires the quorum model"}
	}
	done := make(chan error, 1)
	answer := func(err error) {
		select {
		case done <- err:
		default:
		}
	}
	call := func(env transport.Env) { start(env, answer) }
	if s.ackB != nil {
		call = func(env transport.Env) { s.ackB.Call(env, func(env transport.Env) { start(env, answer) }) }
	}
	if !s.tcp.Invoke(s.cfg.ID, call) {
		return Response{Err: "node stopped"}
	}
	select {
	case err := <-done:
		if err != nil {
			return Response{Err: err.Error()}
		}
		ep, mode := s.qnode.State()
		return Response{OK: true, Epoch: ep.Seq, State: mode}
	case <-time.After(requestTimeout):
		return Response{Err: timeout}
	}
}
