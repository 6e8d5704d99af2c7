package server

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/quorum"
	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Live elasticity: online membership change for the quorum model.
//
// Membership is a totally ordered sequence of epochs (ring.Epoch): every
// epoch's ring is a pure function of its member set, so agreeing on
// (seq, members) is agreeing on placement. The epoch has one holder, the
// quorum node, and one writer, this file's handlers on the node's serial
// loop: each change — an install, a settle, a settled pull reply, a join,
// a leave, a decommission — builds a new ring.Epoch and hands it to
// Node.Install, and everything else reads it back from the node. Its Prev
// ring is the previous epoch's while the transfer window is open, nil
// once it settles. The node's state (ok, catching-up, draining, left) is
// derived from the epoch it reports with, never stored beside it.
//
// A change is installed in two phases — the coordinator broadcasts the
// new epoch and waits for every member's ack before any data moves, so
// by the time arcs stream, every coordinator dual-applies writes to both
// placements and no write can land in a gap. The joiner (or each survivor gaining arcs from a
// leaver) pulls exactly the moved ranges (ring.DiffN) through the quorum
// node's cursor-batched, token-bucketed transfer stream (see
// internal/quorum/transfer.go), journaling completed ranges to the WAL
// so a kill mid-transfer resumes instead of restarting. While its ranges
// are incomplete the gainer refuses replica reads (not ready) and stays out
// of the read quorum; when the last range lands, the gainer settles the
// epoch and the dual-apply window closes.
//
// Decommission runs the same machinery in reverse: the leaver first
// drains (stops minting dots, flushes hinted handoff), then installs the
// leave epoch, waits for every gainer to ack its last range
// (transferComplete), and only then reports "left" so the operator can
// stop the process.

// Node elasticity states, as reported by /healthz and `ecctl status`.
const (
	stateOK         = "ok"
	stateCatchingUp = "catching-up"
	stateDraining   = "draining"
	stateLeft       = "left"
)

// Wire ids 40–49 belong to the membership protocol (10–11 are the
// client protocol; see transport.BinaryMessage). A ring change is rare,
// so its messages sit above the per-operation range.
const (
	widRingUpdate uint16 = 40 + iota
	widRingAck
	widBeginTransfer
	widTransferComplete
	widEpochSettled
	widRingPull
)

// Protocol messages.
type (
	// ringUpdate installs a membership epoch: the full member set and
	// address map of epoch Seq, plus which node is joining or leaving.
	// Receivers derive the previous ring from the content (Leave the
	// joiner / re-Join the leaver), never from their own possibly-stale
	// state — which is what lets a restarted node reconstruct the open
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
	// ringPull asks a peer for its current epoch (boot, or after a
	// replicaNotOwner revealed a stale ring).
	ringPull struct{}
)

func appendStrings(dst []byte, ss []string) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = wire.AppendString(dst, s)
	}
	return dst
}

// zonesParallel renders each member's zone as an array parallel to
// members — nil when no member is zoned, keeping the codec's
// nil-or-non-empty collection contract.
func zonesParallel(members []string, zones map[string]string) []string {
	any := false
	out := make([]string, len(members))
	for i, m := range members {
		out[i] = zones[m]
		if out[i] != "" {
			any = true
		}
	}
	if !any {
		return nil
	}
	return out
}

func readStrings(r *wire.Reader) []string {
	n := r.Uvarint()
	if n == 0 {
		return nil
	}
	if n > uint64(r.Len()) { // each string costs >= 1 byte
		r.Poison()
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.String())
	}
	return out
}

func (ringUpdate) WireID() uint16 { return widRingUpdate }
func (m ringUpdate) AppendBinary(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, m.Seq)
	dst = wire.AppendString(dst, m.Joining)
	dst = wire.AppendString(dst, m.Leaving)
	dst = appendStrings(dst, m.Members)
	dst = appendStrings(dst, m.Addrs)
	dst = wire.AppendBool(dst, m.Settled)
	dst = wire.AppendBool(dst, m.Reply)
	return appendStrings(dst, m.Zones)
}

func (ringAck) WireID() uint16                   { return widRingAck }
func (m ringAck) AppendBinary(dst []byte) []byte { return wire.AppendUvarint(dst, m.Seq) }

func (beginTransfer) WireID() uint16                   { return widBeginTransfer }
func (m beginTransfer) AppendBinary(dst []byte) []byte { return wire.AppendUvarint(dst, m.Seq) }

func (transferComplete) WireID() uint16                   { return widTransferComplete }
func (m transferComplete) AppendBinary(dst []byte) []byte { return wire.AppendUvarint(dst, m.Seq) }

func (epochSettled) WireID() uint16                   { return widEpochSettled }
func (m epochSettled) AppendBinary(dst []byte) []byte { return wire.AppendUvarint(dst, m.Seq) }

func (ringPull) WireID() uint16                 { return widRingPull }
func (ringPull) AppendBinary(dst []byte) []byte { return dst }

func init() {
	transport.RegisterBinary(widRingUpdate, func(r *wire.Reader) transport.Message {
		return ringUpdate{
			Seq:     r.Uvarint(),
			Joining: r.String(),
			Leaving: r.String(),
			Members: readStrings(r),
			Addrs:   readStrings(r),
			Settled: r.Bool(),
			Reply:   r.Bool(),
			Zones:   readStrings(r),
		}
	})
	transport.RegisterBinary(widRingAck, func(r *wire.Reader) transport.Message {
		return ringAck{Seq: r.Uvarint()}
	})
	transport.RegisterBinary(widBeginTransfer, func(r *wire.Reader) transport.Message {
		return beginTransfer{Seq: r.Uvarint()}
	})
	transport.RegisterBinary(widTransferComplete, func(r *wire.Reader) transport.Message {
		return transferComplete{Seq: r.Uvarint()}
	})
	transport.RegisterBinary(widEpochSettled, func(r *wire.Reader) transport.Message {
		return epochSettled{Seq: r.Uvarint()}
	})
	transport.RegisterBinary(widRingPull, func(r *wire.Reader) transport.Message {
		return ringPull{}
	})
}

// elastic is what the serial loop keeps for membership changes beside the
// epoch itself, which is the quorum node's (Node.Install): the subject of
// the open window, peer addresses, and a coordinator's outstanding acks.
// Only the serial loop reads or writes it.
type elastic struct {
	// joining/leaving name the open window's subject ("" when settled).
	joining, leaving string
	addrs            map[string]string // current id -> peer address

	// Coordinator state: acks outstanding for the epoch this node is
	// installing cluster-wide, and — leaver only — gainers that have not
	// yet acked their last range.
	ackSeq     uint64
	acksWanted map[string]bool
	onAcked    func(env transport.Env)
	gainers    map[string]bool

	// pullAnswered records that some peer has answered a ringPull since
	// boot. Until then the pull repeats: a peer writes its first answer to
	// a restarted node into the old connection if it has not yet noticed
	// that one is dead, and the answer is lost.
	pullAnswered bool
}

// epochState loads the installed epoch and derives the node's elasticity
// state from it and from whether the node has begun draining, which it
// does before its leave epoch exists and never undoes. Deriving the state
// from the one epoch it is reported with is what keeps an answer from
// pairing an epoch with a state older than that epoch.
func (s *Server) epochState() (ring.Epoch, string) {
	ep := s.qnode.Epoch()
	in := func(r *ring.Ring) bool { return r != nil && slices.Contains(r.Members(), s.cfg.ID) }
	switch {
	case !in(ep.Ring) && in(ep.Prev):
		return ep, stateDraining // the window of this node's own leave
	case !in(ep.Ring) && s.qnode.Draining():
		return ep, stateLeft
	case !in(ep.Ring) || ep.Prev != nil && !in(ep.Prev):
		return ep, stateCatchingUp // before, or in, the window of this node's join
	case s.qnode.Draining():
		return ep, stateDraining
	}
	return ep, stateOK
}

// elasticPullTag paces ringPull retries while a joiner waits for its
// epoch (or a restarted leaver waits to resume).
type elasticPullTag struct{}

const elasticPullInterval = time.Second

// elasticHandler interposes on the storage actor: membership messages
// and timers are handled here (same loop, so it may call quorum.Node
// methods directly); everything else forwards to the protocol node. It
// sits inside the durability ack barrier, so its sends honor the same
// commit ordering as protocol acks. Membership messages hit the protocol
// node's ShardOf default case (-1) and stay on the serial loop, which is
// what lets OnMessage touch epoch state without locking.
type elasticHandler struct {
	s     *Server
	inner transport.Handler
}

func (h *elasticHandler) OnStart(env transport.Env) {
	h.inner.OnStart(env)
	h.s.elasticPull(env)
}

func (h *elasticHandler) OnMessage(env transport.Env, from string, msg transport.Message) {
	switch m := msg.(type) {
	case ringUpdate:
		h.s.onRingUpdate(env, from, m)
	case ringAck:
		h.s.onRingAck(env, from, m)
	case beginTransfer:
		h.s.onBeginTransfer(env, m)
	case transferComplete:
		h.s.onTransferComplete(env, from, m)
	case epochSettled:
		h.s.settle(m.Seq)
	case ringPull:
		h.s.onRingPull(env, from)
	default:
		h.inner.OnMessage(env, from, msg)
	}
}

func (h *elasticHandler) OnTimer(env transport.Env, tag any) {
	if _, ok := tag.(elasticPullTag); ok {
		h.s.elasticPull(env)
		return
	}
	h.inner.OnTimer(env, tag)
}

// elasticPull asks every known peer for the current epoch. It runs on
// the storage loop at (re)start — a fresh cluster answers with seq 0,
// which no one installs; a node restarted mid-window gets the open epoch
// back (Joining/Leaving intact) and resumes its side of the transfer —
// and again each elasticPullInterval while no peer has answered, or
// while this node is still waiting for its join window (a lost
// broadcast, or peers that weren't up yet).
func (s *Server) elasticPull(env transport.Env) {
	peers := make([]string, 0, len(s.el.addrs))
	for id := range s.el.addrs {
		if id != s.cfg.ID {
			peers = append(peers, id)
		}
	}
	sort.Strings(peers)
	unanswered := !s.el.pullAnswered && len(peers) > 0
	_, st := s.epochState()
	waiting := st == stateCatchingUp
	if unanswered || (waiting && !s.qnode.CatchingUp()) {
		for _, p := range peers {
			env.Send(p, ringPull{})
		}
	}
	if unanswered || waiting {
		env.SetTimer(elasticPullInterval, elasticPullTag{})
	}
}

// epochUpdate renders members at epoch seq as a ringUpdate, with their
// addresses and the zones r names for them.
func (s *Server) epochUpdate(seq uint64, members []string, r *ring.Ring) ringUpdate {
	addrs := make([]string, len(members))
	for i, m := range members {
		addrs[i] = s.el.addrs[m]
	}
	return ringUpdate{Seq: seq, Members: members, Addrs: addrs, Zones: zonesParallel(members, r.Zones())}
}

// onRingPull answers with this node's current epoch. The reply carries
// the open window's subject so a restarted joiner/leaver can rebuild
// the previous ring and resume.
func (s *Server) onRingPull(env transport.Env, from string) {
	ep := s.qnode.Epoch()
	upd := s.epochUpdate(ep.Seq, ep.Ring.Members(), ep.Ring)
	upd.Joining, upd.Leaving = s.el.joining, s.el.leaving
	upd.Settled, upd.Reply = ep.Prev == nil, true
	env.Send(from, upd)
}

// installUpdate builds the epoch a (strictly newer) update describes and
// installs it in the quorum node: new ring, previous ring derived from
// the update's content, peer addresses, and with them the member set
// (also the failover list of the operations the node forwards).
// Idempotent by Seq. Returns whether the epoch was installed.
func (s *Server) installUpdate(m ringUpdate) bool {
	el := s.el
	if len(m.Members) == 0 || len(m.Addrs) != len(m.Members) {
		return false
	}
	cur := s.qnode.Epoch()
	if m.Seq <= cur.Seq {
		// Already there — but a settled pull reply may still be the news
		// that closes a window this node thinks is open (missed settle).
		if m.Seq == cur.Seq && m.Settled && m.Reply {
			s.settle(m.Seq)
		}
		return false
	}
	members := append([]string(nil), m.Members...)
	sort.Strings(members)
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
	ep := ring.Epoch{Seq: m.Seq, Ring: ring.NewZoned(members, ring.DefaultVirtualNodes, zones)}
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
	if self, ok := el.addrs[s.cfg.ID]; ok {
		addrs[s.cfg.ID] = self // keep own listen address even when leaving
	}
	// The leaver is not a member of the new epoch, but until the epoch
	// settles it must stay reachable: survivors ack the leave to it and
	// pull their gained arcs from it.
	if ep.Prev != nil && m.Leaving != "" {
		if la, ok := el.addrs[m.Leaving]; ok {
			addrs[m.Leaving] = la
		}
	}
	el.joining, el.leaving = m.Joining, m.Leaving
	el.addrs = addrs
	s.tcp.SetPeers(addrs)
	s.qnode.Install(ep)
	s.logf("server %s: installed membership epoch %d (members=%v joining=%q leaving=%q settled=%v)",
		s.cfg.ID, m.Seq, members, m.Joining, m.Leaving, m.Settled)
	return true
}

// settle closes epoch seq's transfer window, if it is the installed
// epoch's and still open: the epoch is reinstalled without its previous
// ring, and a departed leaver's address is dropped so the transport
// stops dialing it.
func (s *Server) settle(seq uint64) {
	ep := s.qnode.Epoch()
	if ep.Seq != seq || ep.Prev == nil {
		return
	}
	leaver := s.el.leaving
	s.el.joining, s.el.leaving = "", ""
	if leaver != "" && leaver != s.cfg.ID {
		delete(s.el.addrs, leaver)
		s.tcp.SetPeers(s.el.addrs)
	}
	s.qnode.Install(ring.Epoch{Seq: ep.Seq, Ring: ep.Ring})
}

func (s *Server) onRingUpdate(env transport.Env, from string, m ringUpdate) {
	s.installUpdate(m)
	if !m.Reply && from != s.cfg.ID {
		env.Send(from, ringAck{Seq: m.Seq})
	}
	el := s.el
	el.pullAnswered = el.pullAnswered || m.Reply
	ep := s.qnode.Epoch()
	current := m.Reply && m.Seq == ep.Seq && ep.Prev != nil
	if current && el.joining == s.cfg.ID && !s.qnode.CatchingUp() {
		s.startCatchUp(env)
	}
	if current && el.leaving == s.cfg.ID && el.acksWanted == nil && el.gainers == nil {
		s.resumeDecommission(env)
	}
}

func (s *Server) onRingAck(env transport.Env, from string, m ringAck) {
	el := s.el
	if m.Seq != el.ackSeq || !el.acksWanted[from] {
		return
	}
	delete(el.acksWanted, from)
	if len(el.acksWanted) == 0 {
		cb := el.onAcked
		el.acksWanted, el.onAcked = nil, nil
		cb(env)
	}
}

func (s *Server) onBeginTransfer(env transport.Env, m beginTransfer) {
	if ep := s.qnode.Epoch(); m.Seq == ep.Seq && ep.Prev != nil {
		s.startCatchUp(env)
	}
}

// startCatchUp computes this node's gained arcs under the open window
// and begins (or resumes) pulling them through the quorum node. Safe to
// call repeatedly — BeginCatchUp is idempotent per epoch, and ranges
// already journaled complete are skipped.
func (s *Server) startCatchUp(env transport.Env) {
	ep := s.qnode.Epoch()
	if ep.Prev == nil {
		return
	}
	var pulls []quorum.TransferPull
	for _, g := range ring.DiffN(ep.Prev, ep.Ring, s.qN) {
		if !g.Gained(s.cfg.ID) {
			continue
		}
		// Any previous owner holds the range; prefer the leaver (it is
		// guaranteed to stay up until every gainer acks).
		src := g.Old[0]
		if s.el.leaving != "" && slices.Contains(g.Old, s.el.leaving) {
			src = s.el.leaving
		}
		pulls = append(pulls, quorum.TransferPull{Source: src, Start: g.Start, End: g.End})
	}
	s.qnode.BeginCatchUp(env, ep.Seq, pulls, func() {
		// No env in the completion callback: hop back onto the loop.
		s.tcp.Invoke(s.cfg.ID, func(env transport.Env) { s.afterCatchUp(env, ep.Seq) })
	})
}

// afterCatchUp runs on the gainer when its last range lands: a joiner
// settles the epoch cluster-wide; a survivor gaining from a leaver acks
// the leaver instead (the leaver settles once every gainer acked).
func (s *Server) afterCatchUp(env transport.Env, seq uint64) {
	ep, st := s.epochState()
	if seq != ep.Seq {
		return
	}
	if st == stateCatchingUp {
		s.settle(seq)
		for _, p := range ep.Ring.Members() {
			if p != s.cfg.ID {
				env.Send(p, epochSettled{Seq: seq})
			}
		}
		s.logf("server %s: caught up epoch %d; settled", s.cfg.ID, seq)
		return
	}
	if s.el.leaving != "" {
		env.Send(s.el.leaving, transferComplete{Seq: seq})
	}
}

// startJoin (coordinator side of `ecctl add-node`) installs the join
// epoch locally, broadcasts it, and — once every member acked — releases
// the joiner's transfer. done receives the outcome of the ack phase.
func (s *Server) startJoin(env transport.Env, id, addr, zone string, done chan error) {
	el := s.el
	ep, st := s.epochState()
	switch {
	case st != stateOK:
		done <- fmt.Errorf("node is %s, cannot coordinate a join", st)
		return
	case ep.Prev != nil || el.acksWanted != nil:
		done <- fmt.Errorf("membership change already in progress (epoch %d)", ep.Seq)
		return
	case slices.Contains(ep.Ring.Members(), id):
		done <- fmt.Errorf("%s is already a member", id)
		return
	}
	seq := ep.Seq + 1
	members := append(append([]string(nil), ep.Ring.Members()...), id)
	sort.Strings(members)
	upd := s.epochUpdate(seq, members, ep.Ring)
	upd.Joining = id
	i := slices.Index(members, id)
	upd.Addrs[i] = addr
	if zone != "" {
		if upd.Zones == nil {
			upd.Zones = make([]string, len(members))
		}
		upd.Zones[i] = zone
	}
	s.installUpdate(upd)
	el.ackSeq = seq
	el.acksWanted = make(map[string]bool, len(members)-1)
	for _, m := range members {
		if m != s.cfg.ID {
			el.acksWanted[m] = true
		}
	}
	el.onAcked = func(env transport.Env) {
		env.Send(id, beginTransfer{Seq: seq})
		select {
		case done <- nil:
		default:
		}
	}
	for _, m := range members {
		if m != s.cfg.ID {
			env.Send(m, upd)
		}
	}
}

// startDecommission begins this node's graceful exit: drain first (stop
// minting dots, flush hints), then hand arcs to the survivors. done is
// answered as soon as the drain is underway; progress is polled via
// ring-status.
func (s *Server) startDecommission(env transport.Env, done chan error) {
	ep, st := s.epochState()
	switch {
	case st == stateDraining || st == stateLeft:
		done <- fmt.Errorf("node is already %s", st)
		return
	case st != stateOK || ep.Prev != nil || s.el.acksWanted != nil:
		done <- fmt.Errorf("membership change in progress (epoch %d)", ep.Seq)
		return
	case ep.Ring.Size()-1 < s.qN:
		done <- fmt.Errorf("cannot decommission: %d members left would be under the replication factor %d", ep.Ring.Size()-1, s.qN)
		return
	}
	s.qnode.BeginDrain(env, func() {
		s.tcp.Invoke(s.cfg.ID, func(env transport.Env) { s.decommissionTransfer(env) })
	})
	done <- nil
}

// decommissionTransfer runs on the leaver once its hints are flushed:
// install + broadcast the leave epoch, and after every survivor acks,
// release the gainers' pulls.
func (s *Server) decommissionTransfer(env transport.Env) {
	ep, st := s.epochState()
	if st != stateDraining {
		return
	}
	members := make([]string, 0, ep.Ring.Size()-1)
	for _, m := range ep.Ring.Members() {
		if m != s.cfg.ID {
			members = append(members, m)
		}
	}
	upd := s.epochUpdate(ep.Seq+1, members, ep.Ring)
	upd.Leaving = s.cfg.ID
	s.installUpdate(upd)
	s.coordinateLeave(env, upd)
}

// resumeDecommission rebuilds the leaver's coordination after a restart
// mid-decommission: the epoch is already installed (from a pull reply);
// re-drain, then re-broadcast the same epoch and collect acks again.
// Gainers that already finished answer transferComplete immediately.
func (s *Server) resumeDecommission(env transport.Env) {
	ep := s.qnode.Epoch()
	upd := s.epochUpdate(ep.Seq, ep.Ring.Members(), ep.Ring)
	upd.Leaving = s.cfg.ID
	s.qnode.BeginDrain(env, func() {
		s.tcp.Invoke(s.cfg.ID, func(env transport.Env) { s.coordinateLeave(env, upd) })
	})
}

// coordinateLeave broadcasts the leave epoch and arms the ack phase.
func (s *Server) coordinateLeave(env transport.Env, upd ringUpdate) {
	el := s.el
	if ep, st := s.epochState(); st != stateDraining || upd.Seq != ep.Seq {
		return
	}
	el.ackSeq = upd.Seq
	el.acksWanted = make(map[string]bool, len(upd.Members))
	for _, m := range upd.Members {
		el.acksWanted[m] = true
	}
	el.onAcked = func(env transport.Env) { s.sendBeginTransfers(env, upd.Seq) }
	for _, m := range upd.Members {
		env.Send(m, upd)
	}
}

// sendBeginTransfers releases every gainer's pull for the leave epoch
// and waits for their transferComplete acks.
func (s *Server) sendBeginTransfers(env transport.Env, seq uint64) {
	ep, st := s.epochState()
	if seq != ep.Seq || st != stateDraining || ep.Prev == nil {
		return
	}
	gainers := make(map[string]bool)
	for _, g := range ring.DiffN(ep.Prev, ep.Ring, s.qN) {
		for _, m := range g.New {
			if m != s.cfg.ID && g.Gained(m) {
				gainers[m] = true
			}
		}
	}
	if len(gainers) == 0 {
		s.settleDecommission(env, seq)
		return
	}
	s.el.gainers = gainers
	ids := make([]string, 0, len(gainers))
	for g := range gainers {
		ids = append(ids, g)
	}
	sort.Strings(ids)
	for _, g := range ids {
		env.Send(g, beginTransfer{Seq: seq})
	}
}

func (s *Server) onTransferComplete(env transport.Env, from string, m transferComplete) {
	el := s.el
	if m.Seq != s.qnode.Epoch().Seq || !el.gainers[from] {
		return
	}
	delete(el.gainers, from)
	if len(el.gainers) == 0 {
		el.gainers = nil
		s.settleDecommission(env, m.Seq)
	}
}

// settleDecommission: every gainer holds its arcs — the leaver's exit is
// safe. Settle the epoch on the survivors; settled, the leave epoch
// reports this node "left".
func (s *Server) settleDecommission(env transport.Env, seq uint64) {
	ep := s.qnode.Epoch()
	if seq != ep.Seq {
		return
	}
	s.settle(seq)
	for _, m := range ep.Ring.Members() {
		if m != s.cfg.ID {
			env.Send(m, epochSettled{Seq: seq})
		}
	}
	s.logf("server %s: decommission complete at epoch %d; node has left", s.cfg.ID, seq)
}

// onStaleRing runs when a replica's refusal carried a newer epoch than
// the node's: pull the current membership from a peer.
func (s *Server) onStaleRing(uint64) {
	for _, m := range s.qnode.Epoch().Ring.Members() {
		if m != s.cfg.ID {
			s.tcp.Post(s.cfg.ID, m, ringPull{})
			return
		}
	}
}

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
	ep, mode := s.epochState()
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
	if s.qnode == nil {
		return Response{Err: "elasticity requires the quorum model"}
	}
	id, addr := req.Key, string(req.Value)
	if id == "" || addr == "" {
		return Response{Err: "add-node needs a node id (key) and peer address (value)"}
	}
	done := make(chan error, 1)
	if !s.tcp.Invoke(s.cfg.ID, func(env transport.Env) { s.startJoin(env, id, addr, req.Zone, done) }) {
		return Response{Err: "node stopped"}
	}
	select {
	case err := <-done:
		if err != nil {
			return Response{Err: err.Error()}
		}
		ep, mode := s.epochState()
		return Response{OK: true, Epoch: ep.Seq, State: mode}
	case <-time.After(requestTimeout):
		return Response{Err: "add-node timed out waiting for member acks"}
	}
}

// handleDecommission starts this node's graceful exit. OK means the
// drain is underway; the caller polls ring-status until State is
// "left" before stopping the process.
func (s *Server) handleDecommission() Response {
	if s.qnode == nil {
		return Response{Err: "elasticity requires the quorum model"}
	}
	done := make(chan error, 1)
	if !s.tcp.Invoke(s.cfg.ID, func(env transport.Env) { s.startDecommission(env, done) }) {
		return Response{Err: "node stopped"}
	}
	select {
	case err := <-done:
		if err != nil {
			return Response{Err: err.Error()}
		}
		ep, mode := s.epochState()
		return Response{OK: true, Epoch: ep.Seq, State: mode}
	case <-time.After(requestTimeout):
		return Response{Err: "decommission timed out"}
	}
}
