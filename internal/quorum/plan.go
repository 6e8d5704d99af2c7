package quorum

import (
	"fmt"
	"slices"

	"repro/internal/clock"
	"repro/internal/geo"
	"repro/internal/ring"
	"repro/internal/transport"
)

// NotOwnerError refuses what the node's membership state forbids: every
// operation once it has left, and writes while it drains. The client
// should retry against a current member.
type NotOwnerError struct {
	Node  string
	Epoch uint64 // the epoch the state is derived from
	State string // StateLeft or StateDraining
}

func (e *NotOwnerError) Error() string {
	return fmt.Sprintf("node %s is %s at membership epoch %d; retry against a current member", e.Node, e.State, e.Epoch)
}

// Plan is how this node serves one client operation (see Node.Plan): its
// coordinator, the read quorum asked (0 keeps the configured R), the SLA
// tier delivered and the staleness that decided it; or only a refusal.
type Plan struct {
	Coord   string
	R       int
	Tier    geo.Kind
	StaleMs int64
	Refused *NotOwnerError
}

// Plan plans a client operation on key under the installed epoch: a
// write, or a get at tier, whose bound is boundMs when tier is
// geo.Bounded. Writes and strong reads take the configured quorum, at
// cross-zone round-trip cost. An eventual read takes R=1, coordinated
// inside this node's zone, and may trail remote zones by the replicator
// lag. A bounded read is eventual while this node's measured staleness
// for every remote zone is within the bound, and strong otherwise or
// before any measurement.
func (n *Node) Plan(write bool, key string, tier geo.Kind, boundMs int64) Plan {
	ep, st := n.State()
	switch {
	case st == StateLeft || write && st == StateDraining:
		return Plan{Refused: &NotOwnerError{Node: n.id, Epoch: ep.Seq, State: st}}
	case write || tier == geo.Strong:
		return Plan{Coord: n.coordinator(&ep, key, false), Tier: geo.Strong}
	}
	stale := n.worstStaleness(&ep)
	if tier == geo.Bounded && (stale < 0 || stale > boundMs) {
		return Plan{Coord: n.coordinator(&ep, key, false), Tier: geo.Strong, StaleMs: stale}
	}
	return Plan{Coord: n.coordinator(&ep, key, true), R: 1, Tier: geo.Eventual, StaleMs: stale}
}

// coordinator picks the node that coordinates an operation on key under
// ep. The rule is to coordinate where the client landed: this node,
// whenever it is one of the key's replicas. Quorums intersect whichever
// replica coordinates, a write's dot is (this node, request id) whichever
// node coordinates it, and dual-apply, hints and read repair run wherever
// the operation does. The key's ring owner coordinates instead in three
// cases:
//
//   - this node is not a replica of the key (N < cluster size);
//   - GeoAsync is on and the operation is a write or a strong read: a
//     write acks on its coordinator's zone's sub-quorum, so a strong read
//     is fresh only because writes and strong reads of a key meet at the
//     one owner;
//   - this node is catching up: its own replica would refuse the read.
//
// An eventual read (inZone) keeps to the zone instead: this node if it
// is a replica, else the first replica in its zone, else the owner.
func (n *Node) coordinator(ep *ring.Epoch, key string, inZone bool) string {
	prefs, _ := n.cfg.placement(ep, key)
	local := slices.Contains(prefs, n.id)
	switch {
	case inZone:
		if local {
			return n.id
		}
		for _, p := range prefs {
			if ep.Ring.ZoneOf(p) == n.cfg.Zone {
				return p
			}
		}
	case local && !n.cfg.GeoAsync && !n.CatchingUp():
		return n.id
	}
	return prefs[0]
}

// CoordinatePut runs a put of key for a client in this node's process,
// under the causal context ctx the client holds for the key. The host
// calls it on the key's execution domain (ShardOf maps the key's
// messages there), where the node plans it (Plan), refusing it or minting
// its request id; the write's dot is (this node, request id). When the
// coordinator is this node the put is coordinated in place: no message
// crosses to the node and back, and cb is called with the Env of the
// invocation the put completed in (see finishWrite). Otherwise the put is
// forwarded to the coordinator as a message from this node, with the
// retries and failover of requests, and cb is called on the
// domain the answer routes back to, the same one (ShardOf sends an answer
// to the shard that issued its id). A put that fails answers with the
// context that covers it all the same, so a client that echoes it
// supersedes the write whether it was applied or not.
func (n *Node) CoordinatePut(env transport.Env, key string, value []byte, ctx clock.Vector, cb func(transport.Env, PutResult)) {
	n.startPut(env, clientPut{Key: key, Value: value, Context: ctx}, cb)
}

// CoordinateDelete is CoordinatePut for a tombstone.
func (n *Node) CoordinateDelete(env transport.Env, key string, ctx clock.Vector, cb func(transport.Env, PutResult)) {
	n.startPut(env, clientPut{Key: key, Deleted: true, Context: ctx}, cb)
}

// CoordinateGet is CoordinatePut for a read at an SLA tier; its result
// carries the tier delivered and the staleness measured.
func (n *Node) CoordinateGet(env transport.Env, key string, tier geo.Kind, boundMs int64, cb func(transport.Env, GetResult)) {
	p := n.Plan(false, key, tier, boundMs)
	if p.Refused != nil {
		cb(env, GetResult{Key: key, Err: p.Refused})
		return
	}
	m := clientGet{ID: n.mintReq(n.router.Shard(key)), Key: key, R: p.R}
	if p.Coord == n.id {
		n.coordinateGet(env, n.id, m, cb, p)
		return
	}
	n.reqShard(m.ID).out.send(env, p.Coord, m.ID, m, &request{key: key, get: cb, tier: p.Tier, staleMs: p.StaleMs})
}

func (n *Node) startPut(env transport.Env, m clientPut, cb func(transport.Env, PutResult)) {
	p := n.Plan(true, m.Key, geo.Strong, 0)
	if p.Refused != nil {
		cb(env, PutResult{Key: m.Key, Err: p.Refused})
		return
	}
	m.ID = n.mintReq(n.router.Shard(m.Key))
	if p.Coord == n.id {
		n.coordinatePut(env, n.id, m, cb)
		return
	}
	n.reqShard(m.ID).out.send(env, p.Coord, m.ID, m, &request{key: m.Key, ctx: m.Context, put: cb})
}
