package quorum

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"repro/internal/ring"
	"repro/internal/transport"
)

// Live elasticity: online membership change, run by the node itself.
//
// Membership is a totally ordered sequence of epochs (ring.Epoch), and
// every epoch's ring is a pure function of its member set, so agreeing on
// (seq, members) is agreeing on placement. The node holds the installed
// epoch and is its one writer: each change builds a new ring.Epoch on the
// serial loop and hands it to Install. Prev is the previous epoch's ring
// while the transfer window is open, nil once it settles; the node's state
// is derived from the epoch it is reported with (State).
//
// A change has two phases. The coordinator (the node asked to admit a
// joiner, or the leaver itself) broadcasts the new epoch and waits for
// every member's ack, so that by the time arcs stream every coordinator
// dual-applies writes to both placements and no write lands in a gap; only
// then does it release the gainers (beginTransfer). Each gainer pulls
// exactly its gained ranges (ring.DiffN, transfer.go). In the invocation
// that lands its last range, a joiner settles the epoch cluster-wide and a
// survivor acks the leaver (transferComplete), which settles once every
// gainer has; so a host that holds sends behind the journal (the server's
// ack barrier) holds the settle behind the range's record. A leaver first
// drains its hinted handoff, and is "left" once the epoch settles.
//
// Any message may be lost, and the membership timer repeats what is
// outstanding: a coordinator resends its epoch to the members that have
// not acked and the release to the gainers that have not finished, and a
// node pulls the current epoch from its peers while none has answered it
// since it started, while its own join has not reached it, and while a
// window is open (a settle it missed comes back as a settled pull reply).
// A gainer pulls ranges only once released, never on the first pull reply
// that shows its window: a member may answer before the last member has
// acked. A joiner that has heard every member answer with its epoch knows
// as much as a release would tell it, so a coordinator that restarted and
// forgot the join cannot wedge it. Membership runs only on a node that
// places by a ring (Config.Placement), so a simulator cluster without one
// sends no membership message.

// Node states, as State derives them.
const (
	StateOK         = "ok"
	StateCatchingUp = "catching-up"
	StateDraining   = "draining"
	StateLeft       = "left"
)

// Protocol messages (see wire.go).
type (
	// ringUpdate installs a membership epoch: the full member set and
	// address map of epoch Seq, plus which node is joining or leaving.
	// Receivers derive the previous ring from the content (Leave the
	// joiner / re-Join the leaver), never from their own possibly-stale
	// state, which is what lets a restarted node reconstruct the open
	// transfer window from a peer's reply. Settled marks a closed window
	// (pull replies for an idle cluster); Reply marks a ringPull answer,
	// which must not be acked.
	ringUpdate struct {
		Seq     uint64
		Joining string
		Leaving string
		Members []string
		Addrs   []string // parallel to Members
		Settled bool
		Reply   bool
		Zones   []string // parallel to Members ("" = unzoned); nil for an unzoned cluster
	}
	// ringAck confirms a member installed epoch Seq.
	ringAck struct{ Seq uint64 }
	// beginTransfer tells a gainer every member has acked epoch Seq, so
	// it may start pulling its arcs.
	beginTransfer struct{ Seq uint64 }
	// transferComplete tells a leaver one gainer finished all its pulls.
	transferComplete struct{ Seq uint64 }
	// epochSettled closes epoch Seq's dual-apply window everywhere.
	epochSettled struct{ Seq uint64 }
	// ringPull asks a peer for its current epoch (boot, an open window, or
	// a replicaNotOwner that revealed a stale ring).
	ringPull struct{}
)

// membership is what the serial loop keeps beside the epoch for
// membership changes. Only the serial loop reads or writes it.
type membership struct {
	// joining/leaving name the open window's subject ("" when settled).
	joining, leaving string
	addrs            map[string]string // id -> peer link address (nil in the simulator)

	// The epoch this node coordinates (Seq 0: none yet), the members that
	// have not acked it, the gainers that have not finished pulling since
	// it was released, and the answer to the join that asked for it.
	bcast      ringUpdate
	acksWanted map[string]bool
	gainers    map[string]bool
	acked      func()

	// heard is the epoch each peer last answered a pull with. Until some
	// peer has, the pull repeats: a peer writes its first answer to a
	// restarted node into the old connection if it has not yet noticed
	// that one is dead, and the answer is lost.
	heard map[string]uint64
}

// memberTag paces the membership timer (memberTick).
type memberTag struct{}

const memberInterval = time.Second

// SetAddrs gives the node its peers' link addresses, which the epochs it
// builds carry to their members. Call it before the node runs.
func (n *Node) SetAddrs(addrs map[string]string) { n.mb.addrs = maps.Clone(addrs) }

// State loads the installed epoch and derives the node's state from it
// and from whether the node has begun draining, which it does before its
// leave epoch exists and never undoes. Deriving the state from the one
// epoch it is reported with is what keeps an answer from pairing an epoch
// with a state older than that epoch.
func (n *Node) State() (ring.Epoch, string) {
	ep := n.Epoch()
	in := func(r *ring.Ring) bool { return r != nil && slices.Contains(r.Members(), n.id) }
	switch {
	case !in(ep.Ring) && in(ep.Prev):
		return ep, StateDraining // the window of this node's own leave
	case !in(ep.Ring) && n.draining.Load():
		return ep, StateLeft
	case !in(ep.Ring) || ep.Prev != nil && !in(ep.Prev):
		return ep, StateCatchingUp // before, or in, the window of this node's join
	case n.draining.Load():
		return ep, StateDraining
	}
	return ep, StateOK
}

// Join admits id, whose peer link address is addr, into zone ("" =
// unzoned), with this node coordinating: it installs the join epoch,
// broadcasts it, and once every member has acked releases the joiner's
// transfer and calls acked. It returns an error, and calls nothing, when
// this node cannot coordinate a join now.
func (n *Node) Join(env transport.Env, id, addr, zone string, acked func()) error {
	ep, st := n.State()
	switch {
	case n.cfg.Placement == nil:
		return errors.New("membership change needs a placement ring")
	case st != StateOK:
		return fmt.Errorf("node is %s, cannot coordinate a join", st)
	case ep.Prev != nil || n.mb.acksWanted != nil:
		return fmt.Errorf("membership change already in progress (epoch %d)", ep.Seq)
	case slices.Contains(ep.Ring.Members(), id):
		return fmt.Errorf("%s is already a member", id)
	}
	members := append(slices.Clone(ep.Ring.Members()), id)
	sort.Strings(members)
	upd := n.epochUpdate(ep.Seq+1, members, ep.Ring.JoinZone(id, zone))
	upd.Joining = id
	upd.Addrs[slices.Index(members, id)] = addr
	n.installUpdate(upd)
	n.coordinate(env, upd, acked)
	return nil
}

// Decommission begins this node's graceful exit: it drains (flushes its
// hinted handoff), then installs the leave epoch and hands its arcs to
// the survivors (leave). It returns an error when the node cannot leave
// now; State reports "left" once it has.
func (n *Node) Decommission(env transport.Env) error {
	ep, st := n.State()
	switch {
	case n.cfg.Placement == nil:
		return errors.New("membership change needs a placement ring")
	case st == StateDraining || st == StateLeft:
		return fmt.Errorf("node is already %s", st)
	case st != StateOK || ep.Prev != nil || n.mb.acksWanted != nil:
		return fmt.Errorf("membership change in progress (epoch %d)", ep.Seq)
	case ep.Ring.Size()-1 < n.cfg.N:
		return fmt.Errorf("cannot decommission: %d members left would be under the replication factor %d", ep.Ring.Size()-1, n.cfg.N)
	}
	n.beginDrain(env)
	return nil
}

// memberTick repeats what the protocol has outstanding (see the header)
// and re-arms itself.
func (n *Node) memberTick(env transport.Env) {
	ep, st := n.State()
	mb := &n.mb
	if len(mb.heard) == 0 || ep.Prev != nil || st == StateCatchingUp {
		peers := ep.Ring // pull from every other member of either ring
		if ep.Prev != nil && ep.Prev.Size() > peers.Size() {
			peers = ep.Prev // a leave's, which holds the leaver too
		}
		for _, p := range peers.Members() {
			if p != n.id {
				env.Send(p, ringPull{})
			}
		}
	}
	for _, m := range sortedKeys(mb.acksWanted) {
		env.Send(m, mb.bcast)
	}
	n.sendReleases(env)
	if n.draining.Load() && n.PendingHints() == 0 {
		n.leave(env) // a leave that found another change's window open
	}
	env.SetTimer(memberInterval, memberTag{})
}

// epochUpdate renders members at epoch seq as a ringUpdate, with their
// addresses and the zones r names for them.
func (n *Node) epochUpdate(seq uint64, members []string, r *ring.Ring) ringUpdate {
	addrs := make([]string, len(members))
	for i, m := range members {
		addrs[i] = n.mb.addrs[m]
	}
	return ringUpdate{Seq: seq, Members: members, Addrs: addrs, Zones: zonesParallel(members, r.Zones())}
}

// zonesParallel renders each member's zone as an array parallel to
// members: nil when no member is zoned, keeping the codec's
// nil-or-non-empty collection contract.
func zonesParallel(members []string, zones map[string]string) []string {
	out := make([]string, len(members))
	for i, m := range members {
		out[i] = zones[m]
	}
	if !slices.ContainsFunc(out, func(z string) bool { return z != "" }) {
		return nil
	}
	return out
}

// onRingPull answers with this node's current epoch. The reply carries
// the open window's subject so a restarted joiner or leaver can rebuild
// the previous ring and resume.
func (n *Node) onRingPull(env transport.Env, from string) {
	ep := n.Epoch()
	upd := n.epochUpdate(ep.Seq, ep.Ring.Members(), ep.Ring)
	upd.Joining, upd.Leaving = n.mb.joining, n.mb.leaving
	upd.Settled, upd.Reply = ep.Prev == nil, true
	env.Send(from, upd)
}

// installUpdate builds the epoch a (strictly newer) update describes and
// installs it: new ring, previous ring derived from the update's content,
// peer addresses, and with them the member set. Idempotent by Seq; a
// settled pull reply for the installed epoch settles it (a missed settle).
func (n *Node) installUpdate(m ringUpdate) {
	mb := &n.mb
	if len(m.Members) == 0 || len(m.Addrs) != len(m.Members) {
		return
	}
	cur := n.Epoch()
	if m.Seq <= cur.Seq {
		if m.Seq == cur.Seq && m.Settled && m.Reply {
			n.settle(m.Seq)
		}
		return
	}
	// Zone map of the new epoch: the update's parallel array when the
	// sender carried one, the current ring's otherwise (an unzoned
	// cluster hits neither and stays unzoned).
	zones := cur.Ring.Zones()
	if len(m.Zones) == len(m.Members) && m.Zones != nil {
		zones = make(map[string]string)
		for i, id := range m.Members {
			if m.Zones[i] != "" {
				zones[id] = m.Zones[i]
			}
		}
	}
	ep := ring.Epoch{Seq: m.Seq, Ring: ring.NewZoned(m.Members, ring.DefaultVirtualNodes, zones)}
	if !m.Settled {
		switch {
		case m.Joining != "":
			ep.Prev = ep.Ring.Leave(m.Joining)
		case m.Leaving != "":
			// The leaver is absent from the update; its zone survives in
			// the current ring (or degrades to unzoned, which only affects
			// the closing window's spread, not coverage).
			ep.Prev = ep.Ring.JoinZone(m.Leaving, cur.Ring.ZoneOf(m.Leaving))
		}
	}
	addrs := make(map[string]string, len(m.Members)+1)
	for i, id := range m.Members {
		addrs[id] = m.Addrs[i]
	}
	// Its own address stays, even when this node is leaving, and so does
	// the leaver's until the window settles: survivors ack the leave to it
	// and pull their gained arcs from it.
	for _, id := range []string{n.id, m.Leaving} {
		if a, ok := mb.addrs[id]; ok && (id == n.id || ep.Prev != nil) {
			addrs[id] = a
		}
	}
	mb.joining, mb.leaving = m.Joining, m.Leaving
	n.setAddrs(addrs)
	n.Install(ep)
}

// setAddrs replaces the address map and hands it to the host
// (Config.OnPeers).
func (n *Node) setAddrs(addrs map[string]string) {
	n.mb.addrs = addrs
	if n.cfg.OnPeers != nil {
		n.cfg.OnPeers(addrs)
	}
}

// settle closes epoch seq's transfer window, if it is the installed
// epoch's and still open: the epoch is reinstalled without its previous
// ring, what this node still waited for as its coordinator is moot, and a
// departed leaver's address is dropped so the transport stops dialing it.
func (n *Node) settle(seq uint64) {
	ep := n.Epoch()
	if ep.Seq != seq || ep.Prev == nil {
		return
	}
	mb := &n.mb
	if mb.bcast.Seq == seq {
		mb.acksWanted, mb.gainers = nil, nil
		n.answerJoin()
	}
	leaver := mb.leaving
	mb.joining, mb.leaving = "", ""
	if leaver != "" && leaver != n.id {
		delete(mb.addrs, leaver)
		n.setAddrs(mb.addrs)
	}
	n.Install(ring.Epoch{Seq: ep.Seq, Ring: ep.Ring})
}

// settleAll settles epoch seq on every member, this node last: its own
// settle, too, waits for the records this invocation journaled, so it
// never reports ok (or left) before the settle is on its way to the rest.
func (n *Node) settleAll(env transport.Env, seq uint64) {
	ep := n.Epoch()
	if seq != ep.Seq {
		return
	}
	for _, m := range ep.Ring.Members() {
		if m != n.id {
			env.Send(m, epochSettled{Seq: seq})
		}
	}
	env.Send(n.id, epochSettled{Seq: seq})
}

func (n *Node) onRingUpdate(env transport.Env, from string, m ringUpdate) {
	n.installUpdate(m)
	if !m.Reply {
		env.Send(from, ringAck{Seq: m.Seq})
		return
	}
	mb := &n.mb
	if mb.heard == nil {
		mb.heard = make(map[string]uint64)
	}
	mb.heard[from] = m.Seq
	ep := n.Epoch()
	// A joiner that has heard every member answer with its join epoch
	// knows, as the coordinator's release says, that each has installed
	// it: it need not wait for a coordinator that restarted and forgot.
	if mb.joining == n.id && ep.Prev != nil && !n.CatchingUp() &&
		!slices.ContainsFunc(ep.Ring.Members(), func(p string) bool { return p != n.id && mb.heard[p] < ep.Seq }) {
		n.startCatchUp(env)
	}
	// A leaver that restarted inside its window learns it from a pull
	// reply: it drains again and coordinates the same epoch.
	if m.Seq == ep.Seq && ep.Prev != nil && mb.leaving == n.id && !n.draining.Load() {
		n.beginDrain(env)
	}
}

// coordinate broadcasts upd, an epoch this node has installed, to its
// members and waits for every one's ack (memberTick resends it).
func (n *Node) coordinate(env transport.Env, upd ringUpdate, acked func()) {
	mb := &n.mb
	mb.bcast, mb.acked, mb.gainers = upd, acked, nil
	mb.acksWanted = make(map[string]bool, len(upd.Members))
	for _, m := range upd.Members {
		if m != n.id {
			mb.acksWanted[m] = true
			env.Send(m, upd)
		}
	}
	if len(mb.acksWanted) == 0 {
		n.release(env)
	}
}

func (n *Node) onRingAck(env transport.Env, from string, m ringAck) {
	mb := &n.mb
	if m.Seq != mb.bcast.Seq || !mb.acksWanted[from] {
		return
	}
	delete(mb.acksWanted, from)
	if len(mb.acksWanted) == 0 {
		n.release(env)
	}
}

// release ends the ack phase of the epoch this node coordinates: every
// member has installed it, so the gainers may pull. A join's gainer is
// the joiner, whose settle ends the window; a leave's are the survivors
// DiffN names, each of which acks its last range.
func (n *Node) release(env transport.Env) {
	mb := &n.mb
	mb.acksWanted = nil
	n.answerJoin()
	ep := n.Epoch()
	if ep.Seq != mb.bcast.Seq || ep.Prev == nil {
		return // settled meanwhile
	}
	mb.gainers = make(map[string]bool)
	if j := mb.bcast.Joining; j != "" {
		mb.gainers[j] = true
	} else {
		for _, g := range ring.DiffN(ep.Prev, ep.Ring, n.cfg.N) {
			for _, m := range g.New {
				if m != n.id && g.Gained(m) {
					mb.gainers[m] = true
				}
			}
		}
		if len(mb.gainers) == 0 {
			n.settleAll(env, ep.Seq)
			return
		}
	}
	n.sendReleases(env)
}

// answerJoin answers the join that asked for the epoch this node
// coordinates, once.
func (n *Node) answerJoin() {
	if acked := n.mb.acked; acked != nil {
		n.mb.acked = nil
		acked()
	}
}

// sendReleases (re)sends the release to every gainer still pulling.
func (n *Node) sendReleases(env transport.Env) {
	for _, g := range sortedKeys(n.mb.gainers) {
		env.Send(g, beginTransfer{Seq: n.mb.bcast.Seq})
	}
}

func (n *Node) onBeginTransfer(env transport.Env, m beginTransfer) {
	if ep := n.Epoch(); m.Seq == ep.Seq && ep.Prev != nil {
		n.startCatchUp(env)
	}
}

// startCatchUp computes this node's gained arcs under the open window
// and begins (or resumes) pulling them. Safe to call repeatedly:
// beginCatchUp is idempotent per epoch, and ranges already journaled
// complete are skipped.
func (n *Node) startCatchUp(env transport.Env) {
	ep := n.Epoch()
	var pulls []TransferPull
	for _, g := range ring.DiffN(ep.Prev, ep.Ring, n.cfg.N) {
		if !g.Gained(n.id) {
			continue
		}
		// Any previous owner holds the range, but for acked writes it
		// missed, which anti-entropy brings later (see rebuildTrees);
		// prefer the leaver (it stays up until every gainer acks).
		src := g.Old[0]
		if n.mb.leaving != "" && slices.Contains(g.Old, n.mb.leaving) {
			src = n.mb.leaving
		}
		pulls = append(pulls, TransferPull{Source: src, Start: g.Start, End: g.End})
	}
	n.beginCatchUp(env, ep.Seq, pulls)
}

// caughtUp runs on a gainer when the last range of epoch seq has landed:
// a joiner settles the epoch cluster-wide; a survivor gaining from a
// leaver acks the leaver instead (the leaver settles once every gainer
// has).
func (n *Node) caughtUp(env transport.Env, seq uint64) {
	ep, st := n.State()
	switch {
	case seq != ep.Seq:
	case st == StateCatchingUp:
		n.settleAll(env, seq)
	case n.mb.leaving != "":
		env.Send(n.mb.leaving, transferComplete{Seq: seq})
	}
}

func (n *Node) onTransferComplete(env transport.Env, from string, m transferComplete) {
	mb := &n.mb
	if m.Seq != mb.bcast.Seq || !mb.gainers[from] {
		return
	}
	delete(mb.gainers, from)
	if len(mb.gainers) == 0 {
		mb.gainers = nil
		n.settleAll(env, m.Seq)
	}
}

// leave runs on a draining node once its hints are flushed: it installs
// the leave epoch (or, restarted inside its window, takes the one it
// pulled) and coordinates it. It does nothing while this leave is being
// coordinated already, and waits for the membership timer while another
// change's window is open.
func (n *Node) leave(env transport.Env) {
	ep, st := n.State()
	mb := &n.mb
	if n.cfg.Placement == nil || st != StateDraining || mb.bcast.Seq == ep.Seq && mb.bcast.Leaving == n.id {
		return
	}
	members := slices.DeleteFunc(slices.Clone(ep.Ring.Members()), func(m string) bool { return m == n.id })
	seq := ep.Seq
	if len(members) < ep.Ring.Size() { // this node is still a member: no leave epoch yet
		if ep.Prev != nil {
			return
		}
		seq++
	}
	upd := n.epochUpdate(seq, members, ep.Ring)
	upd.Leaving = n.id
	n.installUpdate(upd) // a no-op when the leave epoch is the installed one
	n.coordinate(env, upd, nil)
}

// onNotOwner handles a replica refusing one of our writes: the refusal
// carries the refuser's epoch, and a newer one means our ring is stale,
// so pull the current membership from the refuser, which is ahead. The
// refusal is also an event of the write it refused, which decides what
// follows (pendingWrite.step).
func (n *Node) onNotOwner(env transport.Env, from string, m replicaNotOwner) {
	n.Transfer.NotOwnerSeen.Add(1)
	if m.Seq > n.epoch.Load().Seq {
		env.Send(from, ringPull{})
	}
	n.onWrite(env, m.ID, writeEvent{kind: wrRefusal, from: from})
}
