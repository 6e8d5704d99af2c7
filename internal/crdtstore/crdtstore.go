// Package crdtstore turns the CRDTs of internal/crdt into a replicated
// service on the simulated network, in both flavors the tutorial
// contrasts:
//
//   - StateNode replicates by state: each replica holds a full CRDT and
//     periodically ships its entire state to a random peer, who merges.
//     Any delivery order, loss, or duplication is tolerated; bandwidth
//     grows with the data.
//   - OpNode replicates by operation: each local update is broadcast as
//     an envelope; a crdt.CausalBuffer at every replica enforces causal,
//     exactly-once application. Bandwidth is per-op; the delivery layer
//     does the work. Lost envelopes are recovered by per-origin
//     retransmission (pull on gap detection would also do; periodic
//     rebroadcast keeps the protocol simple and idempotent).
//
// Both nodes replicate an OR-Set of strings plus a PN-counter per key —
// enough structure to exercise add/remove non-commutativity (the reason
// op-based needs causal delivery) and pure commutativity side by side.
package crdtstore

import (
	"time"

	"repro/internal/clock"
	"repro/internal/crdt"
	"repro/internal/sim"
)

// stateSync carries a full state snapshot (copy) to a peer.
type stateSync struct {
	Set     *crdt.ORSet[string]
	Counter *crdt.PNCounter
}

// Size implements the sim bandwidth hook.
func (m stateSync) Size() int { return m.Set.WireSize() + m.Counter.WireSize() }

// StateNode is a state-based CRDT replica. It implements sim.Handler.
type StateNode struct {
	id       string
	peers    []string
	interval time.Duration

	set     *crdt.ORSet[string]
	counter *crdt.PNCounter
}

type stateTick struct{}

// NewStateNode returns a state-based replica syncing every interval.
func NewStateNode(id string, peers []string, interval time.Duration) *StateNode {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	return &StateNode{
		id:       id,
		peers:    peers,
		interval: interval,
		set:      crdt.NewORSet[string](id),
		counter:  crdt.NewPNCounter(id),
	}
}

// OnStart implements sim.Handler.
func (n *StateNode) OnStart(env sim.Env) { env.SetTimer(n.interval, stateTick{}) }

// OnTimer implements sim.Handler.
func (n *StateNode) OnTimer(env sim.Env, _ any) {
	if len(n.peers) > 0 {
		peer := n.peers[env.Rand().Intn(len(n.peers))]
		env.Send(peer, stateSync{Set: n.set.Copy(), Counter: n.counter.Copy()})
	}
	env.SetTimer(n.interval, stateTick{})
}

// OnMessage implements sim.Handler.
func (n *StateNode) OnMessage(_ sim.Env, _ string, msg sim.Message) {
	if m, ok := msg.(stateSync); ok {
		n.set.Merge(m.Set)
		n.counter.Merge(m.Counter)
	}
}

// Add inserts v into the replicated set.
func (n *StateNode) Add(v string) { n.set.Add(v) }

// Remove deletes v from the replicated set.
func (n *StateNode) Remove(v string) { n.set.Remove(v) }

// Inc adds d to the replicated counter.
func (n *StateNode) Inc(d uint64) { n.counter.Inc(d) }

// Dec subtracts d from the replicated counter.
func (n *StateNode) Dec(d uint64) { n.counter.Dec(d) }

// Contains reports replicated-set membership at this replica.
func (n *StateNode) Contains(v string) bool { return n.set.Contains(v) }

// Elements returns this replica's view of the set.
func (n *StateNode) Elements() []string { return n.set.Elements() }

// Counter returns this replica's view of the counter.
func (n *StateNode) Counter() int64 { return n.counter.Value() }

// ConvergedWith reports whether two replicas hold identical state.
func (n *StateNode) ConvergedWith(o *StateNode) bool {
	return n.set.Equal(o.set) && n.counter.Value() == o.counter.Value()
}

// opBroadcast wraps an envelope for the wire.
type opBroadcast struct {
	E crdt.Envelope
}

// Size implements the sim bandwidth hook.
func (m opBroadcast) Size() int { return m.E.WireSize() }

// counterPayload marks a counter op (vs a set op) in the envelope.
type counterPayload struct {
	Op crdt.CounterOp
}

// WireSize implements the envelope payload size hook.
func (p counterPayload) WireSize() int { return p.Op.WireSize() }

// OpNode is an op-based CRDT replica with causal broadcast. It implements
// sim.Handler.
type OpNode struct {
	id       string
	peers    []string
	interval time.Duration

	set     *crdt.OpORSet[string]
	counter *crdt.OpCounter
	buf     *crdt.CausalBuffer

	seq uint64
	log []crdt.Envelope // everything originated here, for retransmission

	// Rebroadcasts counts retransmitted envelopes (loss recovery).
	Rebroadcasts uint64
}

type opTick struct{}

// ackVector tells a peer which per-origin prefixes we hold, so it can
// retransmit what we miss (the pull half of reliable causal broadcast).
type ackVector struct {
	Applied clock.Vector
}

// NewOpNode returns an op-based replica; interval paces loss-recovery
// rounds.
func NewOpNode(id string, peers []string, interval time.Duration) *OpNode {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	return &OpNode{
		id:       id,
		peers:    peers,
		interval: interval,
		set:      crdt.NewOpORSet[string](id),
		counter:  crdt.NewOpCounter(),
		buf:      crdt.NewCausalBuffer(),
	}
}

// OnStart implements sim.Handler.
func (n *OpNode) OnStart(env sim.Env) { env.SetTimer(n.interval, opTick{}) }

// OnTimer implements sim.Handler.
func (n *OpNode) OnTimer(env sim.Env, _ any) {
	// Anti-entropy for ops: advertise what we have to one random peer;
	// it retransmits anything we miss from its log and its buffer.
	if len(n.peers) > 0 {
		peer := n.peers[env.Rand().Intn(len(n.peers))]
		env.Send(peer, ackVector{Applied: n.buf.Applied()})
	}
	env.SetTimer(n.interval, opTick{})
}

// OnMessage implements sim.Handler.
func (n *OpNode) OnMessage(env sim.Env, from string, msg sim.Message) {
	switch m := msg.(type) {
	case opBroadcast:
		for _, ready := range n.buf.Deliver(m.E) {
			n.apply(ready)
		}
	case ackVector:
		// Retransmit our own ops the peer is missing.
		have := m.Applied.Get(n.id)
		for _, e := range n.log {
			if e.Seq > have {
				env.Send(from, opBroadcast{E: e})
				n.Rebroadcasts++
			}
		}
	}
}

func (n *OpNode) apply(e crdt.Envelope) {
	if e.Origin == n.id {
		return // local ops were applied at issue time
	}
	switch op := e.Op.(type) {
	case counterPayload:
		n.counter.Apply(op.Op)
	default:
		n.set.Apply(e.Op)
	}
}

func (n *OpNode) issue(env sim.Env, op any) {
	n.seq++
	e := crdt.Envelope{Origin: n.id, Seq: n.seq, Deps: n.buf.Applied(), Op: op}
	n.buf.Deliver(e) // marks it applied locally for causal accounting
	n.log = append(n.log, e)
	for _, p := range n.peers {
		env.Send(p, opBroadcast{E: e})
	}
}

// Add inserts v, broadcasting the op.
func (n *OpNode) Add(env sim.Env, v string) {
	n.issue(env, n.set.Add(v))
}

// Remove deletes v (a no-op broadcast-wise if v is absent here).
func (n *OpNode) Remove(env sim.Env, v string) {
	if op, ok := n.set.Remove(v); ok {
		n.issue(env, op)
	}
}

// Inc adds d to the replicated counter.
func (n *OpNode) Inc(env sim.Env, d int64) {
	op := crdt.CounterOp{Delta: d}
	n.counter.Apply(op)
	n.issue(env, counterPayload{Op: op})
}

// Contains reports replicated-set membership at this replica.
func (n *OpNode) Contains(v string) bool { return n.set.Contains(v) }

// Elements returns this replica's view of the set.
func (n *OpNode) Elements() []string { return n.set.Elements() }

// Counter returns this replica's view of the counter.
func (n *OpNode) Counter() int64 { return n.counter.Value() }

// Pending returns how many remote ops are buffered awaiting causal
// predecessors.
func (n *OpNode) Pending() int { return n.buf.Pending() }
