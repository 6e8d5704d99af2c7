package server

import (
	"time"

	"repro/internal/transport"
)

// Live elasticity is the quorum node's own protocol (quorum/membership.go):
// the server hosts it, answers the admin operations that start and watch
// it, and dials the peers its epochs name (quorum.Config.OnPeers). Each
// admin operation is one call of a node entry point on the node's serial
// loop, through the ack barrier like any other invocation of the node.

// handleAddNode coordinates a join: Key is the new node's id, Value its
// peer-link address. OK is answered once every member (including the
// joiner) has acked the new epoch and the transfer has been released;
// catch-up progress is then polled via the joiner's status.
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
// drain is underway; the caller polls the node's status until State is
// "left" before stopping the process.
func (s *Server) handleDecommission(Request) Response {
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
