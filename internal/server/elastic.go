package server

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"
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
// (seq, members) is agreeing on placement. A change is installed in two
// phases — the coordinator broadcasts the new epoch and waits for every
// member's ack before any data moves, so by the time arcs stream, every
// coordinator dual-applies writes to both placements and no write can
// land in a gap. The joiner (or each survivor gaining arcs from a
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
// so its messages sit above the one-byte-tag range.
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

// elastic is the node's membership state. The storage actor loop is the
// only writer of the protocol fields; the mutex exists because the HTTP
// sidecar, client dispatch goroutines, and the quorum node's Elasticity
// hooks read concurrently.
type elastic struct {
	mu   sync.Mutex
	seq  uint64
	cur  *ring.Ring
	prev *ring.Ring // previous epoch's ring while the transfer window is open
	mode string
	// joining/leaving name the open window's subject ("" when settled).
	joining, leaving string
	addrs            map[string]string // current id -> peer address
	zones            map[string]string // current id -> zone ("" entries omitted)
	// Inbound catch-up progress (gainer side), for status reporting.
	xferDone, xferTotal int

	// Coordinator state: acks outstanding for the epoch this node is
	// installing cluster-wide, and — leaver only — gainers that have not
	// yet acked their last range.
	ackSeq     uint64
	acksWanted map[string]bool
	onAcked    func(env transport.Env)
	gainers    map[string]bool

	pullTimer transport.TimerID
	// pullAnswered records that some peer has answered a ringPull since
	// boot. Until then the pull repeats: a peer writes its first answer to
	// a restarted node into the old connection if it has not yet noticed
	// that one is dead, and the answer is lost.
	pullAnswered bool
}

// snapshot returns the fields status endpoints need, consistently.
func (el *elastic) snapshot() (seq uint64, mode string, members []string, done, total int) {
	el.mu.Lock()
	defer el.mu.Unlock()
	return el.seq, el.mode, append([]string(nil), el.cur.Members()...), el.xferDone, el.xferTotal
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
// what lets OnMessage touch epoch state without extra locking.
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
		h.s.onEpochSettled(m)
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

// livePlacement routes quorum placement through the node's current
// membership epoch instead of the boot-time ring.
type livePlacement struct{ s *Server }

func (p livePlacement) Sequence(key string) []string { return p.s.curRing().Sequence(key) }

// serverElastic implements quorum.Elasticity against the server's epoch
// state.
type serverElastic struct{ s *Server }

func (e serverElastic) EpochSeq() uint64 {
	el := e.s.el
	el.mu.Lock()
	defer el.mu.Unlock()
	return el.seq
}

func (e serverElastic) PrevSequence(key string) []string {
	el := e.s.el
	el.mu.Lock()
	prev := el.prev
	el.mu.Unlock()
	if prev == nil {
		return nil
	}
	return prev.Sequence(key)
}

// elasticPull asks every known peer for the current epoch. It runs on
// the storage loop at (re)start — a fresh cluster answers with seq 0,
// which no one installs; a node restarted mid-window gets the open epoch
// back (Joining/Leaving intact) and resumes its side of the transfer —
// and again each elasticPullInterval while no peer has answered, or
// while this node is still waiting for its join window (a lost
// broadcast, or peers that weren't up yet).
func (s *Server) elasticPull(env transport.Env) {
	s.el.mu.Lock()
	peers := make([]string, 0, len(s.el.addrs))
	for id := range s.el.addrs {
		if id != s.cfg.ID {
			peers = append(peers, id)
		}
	}
	sort.Strings(peers)
	unanswered := !s.el.pullAnswered && len(peers) > 0
	waiting := s.el.mode == stateCatchingUp
	s.el.mu.Unlock()
	if unanswered || (waiting && !s.qnode.CatchingUp()) {
		for _, p := range peers {
			env.Send(p, ringPull{})
		}
	}
	if unanswered || waiting {
		s.el.pullTimer = env.SetTimer(elasticPullInterval, elasticPullTag{})
	}
}

// onRingPull answers with this node's current epoch. The reply carries
// the open window's subject so a restarted joiner/leaver can rebuild
// the previous ring and resume.
func (s *Server) onRingPull(env transport.Env, from string) {
	el := s.el
	el.mu.Lock()
	members := append([]string(nil), el.cur.Members()...)
	addrs := make([]string, len(members))
	for i, m := range members {
		addrs[i] = el.addrs[m]
	}
	upd := ringUpdate{
		Seq:     el.seq,
		Joining: el.joining,
		Leaving: el.leaving,
		Members: members,
		Addrs:   addrs,
		Settled: el.prev == nil,
		Reply:   true,
		Zones:   zonesParallel(members, el.zones),
	}
	el.mu.Unlock()
	env.Send(from, upd)
}

// installUpdate applies a (strictly newer) epoch: new ring, previous
// ring derived from the update's content, peer addresses, quorum member
// set, and gateway failover list. Idempotent by Seq. Returns whether the
// epoch was installed.
func (s *Server) installUpdate(env transport.Env, m ringUpdate) bool {
	el := s.el
	if len(m.Members) == 0 || len(m.Addrs) != len(m.Members) {
		return false
	}
	el.mu.Lock()
	if m.Seq <= el.seq {
		// Already there — but a settled pull reply may still be the news
		// that closes a window this node thinks is open (missed settle).
		var peers map[string]string
		if m.Seq == el.seq && m.Settled && el.prev != nil && m.Reply {
			el.prev = nil
			leaver := el.leaving
			el.joining, el.leaving = "", ""
			if el.mode == stateCatchingUp && slices.Contains(m.Members, s.cfg.ID) {
				el.mode = stateOK
			}
			if leaver != "" && leaver != s.cfg.ID {
				delete(el.addrs, leaver)
				peers = make(map[string]string, len(el.addrs))
				for id, a := range el.addrs {
					peers[id] = a
				}
			}
		}
		el.mu.Unlock()
		if peers != nil {
			s.tcp.SetPeers(peers)
		}
		return false
	}
	members := append([]string(nil), m.Members...)
	sort.Strings(members)
	// Zone map of the new epoch: the update's parallel array when the
	// sender carried one, this node's prior knowledge otherwise (an
	// unzoned cluster hits neither and stays unzoned).
	zones := make(map[string]string)
	if len(m.Zones) == len(m.Members) && m.Zones != nil {
		for i, id := range m.Members {
			if m.Zones[i] != "" {
				zones[id] = m.Zones[i]
			}
		}
	} else {
		for id, z := range el.zones {
			zones[id] = z
		}
	}
	newRing := ring.NewZoned(members, ring.DefaultVirtualNodes, zones)
	var prev *ring.Ring
	if !m.Settled {
		switch {
		case m.Joining != "":
			prev = newRing.Leave(m.Joining)
		case m.Leaving != "":
			// The leaver is absent from the update; its zone survives in
			// this node's prior map (or degrades to unzoned, which only
			// affects the closing window's spread, not coverage).
			prev = newRing.JoinZone(m.Leaving, el.zones[m.Leaving])
		}
	}
	addrs := make(map[string]string, len(m.Members))
	for i, id := range m.Members {
		addrs[id] = m.Addrs[i]
	}
	if self, ok := el.addrs[s.cfg.ID]; ok {
		addrs[s.cfg.ID] = self // keep own listen address even when leaving
	}
	// The leaver is not a member of the new epoch, but until the epoch
	// settles it must stay reachable: survivors ack the leave to it and
	// pull their gained arcs from it.
	if prev != nil && m.Leaving != "" {
		if la, ok := el.addrs[m.Leaving]; ok {
			addrs[m.Leaving] = la
		}
		if lz, ok := el.zones[m.Leaving]; ok {
			zones[m.Leaving] = lz
		}
	}
	el.seq, el.cur, el.prev = m.Seq, newRing, prev
	el.joining, el.leaving = m.Joining, m.Leaving
	el.addrs = addrs
	el.zones = zones
	el.xferDone, el.xferTotal = 0, 0
	switch {
	case m.Joining == s.cfg.ID && !m.Settled:
		el.mode = stateCatchingUp
	case m.Leaving == s.cfg.ID && el.mode != stateLeft:
		el.mode = stateDraining
	case m.Settled && el.mode == stateCatchingUp && slices.Contains(members, s.cfg.ID):
		el.mode = stateOK
	}
	addrsCopy := make(map[string]string, len(addrs))
	for id, a := range addrs {
		addrsCopy[id] = a
	}
	el.mu.Unlock()

	s.tcp.SetPeers(addrsCopy)
	s.qnode.SetMembers(members)
	for i, gwID := range s.gwIDs {
		gw := s.gwQuorum[i]
		gwMembers := append([]string(nil), members...)
		s.tcp.Invoke(gwID, func(transport.Env) { gw.Nodes = gwMembers })
	}
	s.logf("server %s: installed membership epoch %d (members=%v joining=%q leaving=%q settled=%v)",
		s.cfg.ID, m.Seq, members, m.Joining, m.Leaving, m.Settled)
	return true
}

func (s *Server) onRingUpdate(env transport.Env, from string, m ringUpdate) {
	s.installUpdate(env, m)
	if !m.Reply && from != s.cfg.ID {
		env.Send(from, ringAck{Seq: m.Seq})
	}
	el := s.el
	el.mu.Lock()
	el.pullAnswered = el.pullAnswered || m.Reply
	current := m.Seq == el.seq && el.prev != nil
	resumeJoin := current && m.Reply && el.joining == s.cfg.ID
	resumeLeave := current && m.Reply && el.leaving == s.cfg.ID &&
		el.acksWanted == nil && el.gainers == nil
	el.mu.Unlock()
	if resumeJoin && !s.qnode.CatchingUp() {
		s.startCatchUp(env)
	}
	if resumeLeave {
		s.resumeDecommission(env)
	}
}

func (s *Server) onRingAck(env transport.Env, from string, m ringAck) {
	el := s.el
	el.mu.Lock()
	if m.Seq != el.ackSeq || el.acksWanted == nil || !el.acksWanted[from] {
		el.mu.Unlock()
		return
	}
	delete(el.acksWanted, from)
	var cb func(env transport.Env)
	if len(el.acksWanted) == 0 {
		cb = el.onAcked
		el.acksWanted, el.onAcked = nil, nil
	}
	el.mu.Unlock()
	if cb != nil {
		cb(env)
	}
}

func (s *Server) onBeginTransfer(env transport.Env, m beginTransfer) {
	s.el.mu.Lock()
	ok := m.Seq == s.el.seq && s.el.prev != nil
	s.el.mu.Unlock()
	if ok {
		s.startCatchUp(env)
	}
}

func (s *Server) onEpochSettled(m epochSettled) {
	el := s.el
	el.mu.Lock()
	var peers map[string]string
	if m.Seq == el.seq && el.prev != nil {
		el.prev = nil
		leaver := el.leaving
		el.joining, el.leaving = "", ""
		// The window is closed: a departed leaver no longer needs to be
		// reachable — drop its address so the transport stops dialing it.
		if leaver != "" && leaver != s.cfg.ID {
			delete(el.addrs, leaver)
			peers = make(map[string]string, len(el.addrs))
			for id, a := range el.addrs {
				peers[id] = a
			}
		}
	}
	el.mu.Unlock()
	if peers != nil {
		s.tcp.SetPeers(peers)
	}
}

// startCatchUp computes this node's gained arcs under the open window
// and begins (or resumes) pulling them through the quorum node. Safe to
// call repeatedly — BeginCatchUp is idempotent per epoch, and ranges
// already journaled complete are skipped.
func (s *Server) startCatchUp(env transport.Env) {
	el := s.el
	el.mu.Lock()
	if el.prev == nil || el.mode == stateLeft {
		el.mu.Unlock()
		return
	}
	seq := el.seq
	prev, cur := el.prev, el.cur
	leaving := el.leaving
	el.mu.Unlock()

	var pulls []quorum.TransferPull
	for _, g := range ring.DiffN(prev, cur, s.qN) {
		if !g.Gained(s.cfg.ID) {
			continue
		}
		// Any previous owner holds the range; prefer the leaver (it is
		// guaranteed to stay up until every gainer acks).
		src := g.Old[0]
		if leaving != "" && slices.Contains(g.Old, leaving) {
			src = leaving
		}
		pulls = append(pulls, quorum.TransferPull{Source: src, Start: g.Start, End: g.End})
	}
	el.mu.Lock()
	el.xferDone, el.xferTotal = s.qnode.TransferDoneFor(seq), len(pulls)
	el.mu.Unlock()
	s.qnode.BeginCatchUp(env, seq, pulls,
		func(done, total int) {
			el.mu.Lock()
			el.xferDone, el.xferTotal = done, total
			el.mu.Unlock()
		},
		func() {
			// No env in the completion callback: hop back onto the loop.
			s.tcp.Invoke(s.cfg.ID, func(env transport.Env) { s.afterCatchUp(env, seq) })
		})
}

// afterCatchUp runs on the gainer when its last range lands: a joiner
// settles the epoch cluster-wide; a survivor gaining from a leaver acks
// the leaver instead (the leaver settles once every gainer acked).
func (s *Server) afterCatchUp(env transport.Env, seq uint64) {
	el := s.el
	el.mu.Lock()
	if seq != el.seq {
		el.mu.Unlock()
		return
	}
	mode, leaving := el.mode, el.leaving
	var peers []string
	if mode == stateCatchingUp {
		el.mode = stateOK
		el.prev = nil
		el.joining, el.leaving = "", ""
		for _, m := range el.cur.Members() {
			if m != s.cfg.ID {
				peers = append(peers, m)
			}
		}
	}
	el.mu.Unlock()
	if mode == stateCatchingUp {
		for _, p := range peers {
			env.Send(p, epochSettled{Seq: seq})
		}
		s.logf("server %s: caught up epoch %d; settled", s.cfg.ID, seq)
		return
	}
	if leaving != "" {
		env.Send(leaving, transferComplete{Seq: seq})
	}
}

// startJoin (coordinator side of `ecctl add-node`) installs the join
// epoch locally, broadcasts it, and — once every member acked — releases
// the joiner's transfer. done receives the outcome of the ack phase.
func (s *Server) startJoin(env transport.Env, id, addr, zone string, done chan error) {
	el := s.el
	el.mu.Lock()
	switch {
	case el.mode != stateOK:
		el.mu.Unlock()
		done <- fmt.Errorf("node is %s, cannot coordinate a join", el.mode)
		return
	case el.prev != nil || el.acksWanted != nil:
		el.mu.Unlock()
		done <- fmt.Errorf("membership change already in progress (epoch %d)", el.seq)
		return
	case slices.Contains(el.cur.Members(), id):
		el.mu.Unlock()
		done <- fmt.Errorf("%s is already a member", id)
		return
	}
	seq := el.seq + 1
	members := append(append([]string(nil), el.cur.Members()...), id)
	sort.Strings(members)
	addrs := make([]string, len(members))
	for i, m := range members {
		if m == id {
			addrs[i] = addr
		} else {
			addrs[i] = el.addrs[m]
		}
	}
	zm := make(map[string]string, len(el.zones)+1)
	for k, v := range el.zones {
		zm[k] = v
	}
	if zone != "" {
		zm[id] = zone
	}
	el.mu.Unlock()

	upd := ringUpdate{Seq: seq, Joining: id, Members: members, Addrs: addrs, Zones: zonesParallel(members, zm)}
	s.installUpdate(env, upd)
	el.mu.Lock()
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
	el.mu.Unlock()
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
	el := s.el
	el.mu.Lock()
	switch {
	case el.mode == stateDraining || el.mode == stateLeft:
		el.mu.Unlock()
		done <- fmt.Errorf("node is already %s", el.mode)
		return
	case el.mode != stateOK || el.prev != nil || el.acksWanted != nil:
		el.mu.Unlock()
		done <- fmt.Errorf("membership change in progress (epoch %d)", el.seq)
		return
	case el.cur.Size()-1 < s.qN:
		size := el.cur.Size()
		el.mu.Unlock()
		done <- fmt.Errorf("cannot decommission: %d members left would be under the replication factor %d", size-1, s.qN)
		return
	}
	el.mode = stateDraining
	el.mu.Unlock()
	done <- nil
	s.qnode.BeginDrain(env, func() {
		s.tcp.Invoke(s.cfg.ID, func(env transport.Env) { s.decommissionTransfer(env) })
	})
}

// decommissionTransfer runs on the leaver once its hints are flushed:
// install + broadcast the leave epoch, and after every survivor acks,
// release the gainers' pulls.
func (s *Server) decommissionTransfer(env transport.Env) {
	el := s.el
	el.mu.Lock()
	if el.mode != stateDraining {
		el.mu.Unlock()
		return
	}
	seq := el.seq + 1
	members := make([]string, 0, el.cur.Size()-1)
	for _, m := range el.cur.Members() {
		if m != s.cfg.ID {
			members = append(members, m)
		}
	}
	addrs := make([]string, len(members))
	for i, m := range members {
		addrs[i] = el.addrs[m]
	}
	zones := zonesParallel(members, el.zones)
	el.mu.Unlock()

	upd := ringUpdate{Seq: seq, Leaving: s.cfg.ID, Members: members, Addrs: addrs, Zones: zones}
	s.installUpdate(env, upd)
	s.coordinateLeave(env, upd)
}

// resumeDecommission rebuilds the leaver's coordination after a restart
// mid-decommission: the epoch is already installed (from a pull reply);
// re-drain, then re-broadcast the same epoch and collect acks again.
// Gainers that already finished answer transferComplete immediately.
func (s *Server) resumeDecommission(env transport.Env) {
	el := s.el
	el.mu.Lock()
	members := append([]string(nil), el.cur.Members()...)
	addrs := make([]string, len(members))
	for i, m := range members {
		addrs[i] = el.addrs[m]
	}
	upd := ringUpdate{Seq: el.seq, Leaving: s.cfg.ID, Members: members, Addrs: addrs,
		Zones: zonesParallel(members, el.zones)}
	el.mu.Unlock()
	s.qnode.BeginDrain(env, func() {
		s.tcp.Invoke(s.cfg.ID, func(env transport.Env) { s.coordinateLeave(env, upd) })
	})
}

// coordinateLeave broadcasts the leave epoch and arms the ack phase.
func (s *Server) coordinateLeave(env transport.Env, upd ringUpdate) {
	el := s.el
	el.mu.Lock()
	if el.mode != stateDraining || upd.Seq != el.seq {
		el.mu.Unlock()
		return
	}
	el.ackSeq = upd.Seq
	el.acksWanted = make(map[string]bool, len(upd.Members))
	for _, m := range upd.Members {
		el.acksWanted[m] = true
	}
	el.onAcked = func(env transport.Env) { s.sendBeginTransfers(env, upd.Seq) }
	el.mu.Unlock()
	for _, m := range upd.Members {
		env.Send(m, upd)
	}
}

// sendBeginTransfers releases every gainer's pull for the leave epoch
// and waits for their transferComplete acks.
func (s *Server) sendBeginTransfers(env transport.Env, seq uint64) {
	el := s.el
	el.mu.Lock()
	if seq != el.seq || el.mode != stateDraining || el.prev == nil {
		el.mu.Unlock()
		return
	}
	prev, cur := el.prev, el.cur
	el.mu.Unlock()

	gainers := make(map[string]bool)
	for _, g := range ring.DiffN(prev, cur, s.qN) {
		for _, m := range g.New {
			if m != s.cfg.ID && g.Gained(m) {
				gainers[m] = true
			}
		}
	}
	el.mu.Lock()
	el.gainers = gainers
	empty := len(gainers) == 0
	el.mu.Unlock()
	if empty {
		s.settleDecommission(env, seq)
		return
	}
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
	el.mu.Lock()
	if m.Seq != el.seq || el.gainers == nil || !el.gainers[from] {
		el.mu.Unlock()
		return
	}
	delete(el.gainers, from)
	fire := len(el.gainers) == 0
	if fire {
		el.gainers = nil
	}
	el.mu.Unlock()
	if fire {
		s.settleDecommission(env, m.Seq)
	}
}

// settleDecommission: every gainer holds its arcs — the leaver's exit is
// safe. Settle the epoch on the survivors and report "left".
func (s *Server) settleDecommission(env transport.Env, seq uint64) {
	el := s.el
	el.mu.Lock()
	if seq != el.seq {
		el.mu.Unlock()
		return
	}
	el.mode = stateLeft
	el.prev = nil
	el.joining, el.leaving = "", ""
	members := append([]string(nil), el.cur.Members()...)
	el.mu.Unlock()
	for _, m := range members {
		if m != s.cfg.ID {
			env.Send(m, epochSettled{Seq: seq})
		}
	}
	s.logf("server %s: decommission complete at epoch %d; node has left", s.cfg.ID, seq)
}

// onStaleRing runs on the storage loop when a replica's refusal carried
// a newer epoch than ours: pull the current membership from a peer.
func (s *Server) onStaleRing(seq uint64) {
	el := s.el
	el.mu.Lock()
	if seq <= el.seq {
		el.mu.Unlock()
		return
	}
	var peer string
	for _, m := range el.cur.Members() {
		if m != s.cfg.ID {
			peer = m
			break
		}
	}
	el.mu.Unlock()
	if peer != "" {
		s.tcp.Post(s.cfg.ID, peer, ringPull{})
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
	MintedDots    uint64   `json:"minted_dots"`
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
	if s.el == nil {
		return Response{Err: "elasticity requires the quorum model"}
	}
	seq, mode, members, done, total := s.el.snapshot()
	st := RingStatus{
		Node: s.cfg.ID, State: mode, Epoch: seq, Members: members,
		TransferDone: done, TransferTotal: total,
		Zone:   s.cfg.Zone,
		Shards: s.qnode.Shards(),
	}
	if s.dur != nil {
		st.ReplayedByLane = s.dur.LaneReplayed()
	}
	captured := make(chan struct{})
	if s.tcp.Invoke(s.cfg.ID, func(transport.Env) {
		st.PendingHints = s.qnode.PendingHints()
		st.MintedDots = s.qnode.MintedDots()
		close(captured)
	}) {
		select {
		case <-captured:
		case <-time.After(requestTimeout):
			return Response{Err: "ring-status timed out"}
		}
	}
	b, err := json.Marshal(st)
	if err != nil {
		return Response{Err: err.Error()}
	}
	return Response{OK: true, Value: b, Epoch: seq, State: mode}
}

// handleAddNode coordinates a join: Key is the new node's id, Value its
// peer-link address. OK is answered once every member (including the
// joiner) has acked the new epoch and the transfer has been released;
// catch-up progress is then polled via ring-status on the joiner.
func (s *Server) handleAddNode(req Request) Response {
	if s.el == nil {
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
		seq, mode, _, _, _ := s.el.snapshot()
		return Response{OK: true, Epoch: seq, State: mode}
	case <-time.After(requestTimeout):
		return Response{Err: "add-node timed out waiting for member acks"}
	}
}

// handleDecommission starts this node's graceful exit. OK means the
// drain is underway; the caller polls ring-status until State is
// "left" before stopping the process.
func (s *Server) handleDecommission() Response {
	if s.el == nil {
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
		seq, mode, _, _, _ := s.el.snapshot()
		return Response{OK: true, Epoch: seq, State: mode}
	case <-time.After(requestTimeout):
		return Response{Err: "decommission timed out"}
	}
}
