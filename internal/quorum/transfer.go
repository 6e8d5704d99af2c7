package quorum

import (
	"encoding/binary"
	"maps"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/ring"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Live elasticity: streaming arc handoff between quorum replicas.
//
// When a membership epoch is released to a gainer (membership.go), it
// computes which arcs of the hash circle it gained (ring.DiffN) and begins
// a pull per arc (beginCatchUp). The gainer asks a current owner to open a
// stream (see stream.go) over exactly each range, resumable after a crash
// because installs dedup by dot, a stalled range is re-opened at the last
// cursor it installed, and completed ranges are journaled to the WAL,
// while the source token-buckets its sends so foreground traffic keeps its
// latency budget. Until a range completes, the gainer's replica refuses
// reads for keys in it (replicaNotReady): the serial loop publishes the
// ranges still pending as an immutable gate behind an atomic pointer, so
// the read path checks them with one load. The coordinator falls back to
// the old owners (which remain in the new ring's fallback walk); writes
// keep landing on both placements via the coordinator's dual-apply, so
// nothing lands in a gap. The invocation that lands the last range runs
// the membership protocol's completion (caughtUp). Anti-entropy remains
// the safety net for anything a transfer window misses.

// TransferPull names one inbound range: pull (Start, End] from Source.
type TransferPull struct {
	Source     string
	Start, End uint64
}

// TransferStats counts transfer activity. Atomics: the node mutates
// them on its actor loop while the metrics endpoint reads concurrently.
type TransferStats struct {
	BytesIn       atomic.Uint64
	BytesOut      atomic.Uint64
	RangesDone    atomic.Uint64
	ThrottleWaits atomic.Uint64
	GatedReads    atomic.Uint64
	NotOwnerSeen  atomic.Uint64
}

// Protocol messages (see wire.go).
type (
	// transferReq asks Source to open, or re-open at Cursor, the stream
	// of the arc (Start, End]. The gainer mints the stream's id, so that it
	// can tell the batches of the stream it last asked for from those of
	// one it has given up on.
	transferReq struct {
		Idx        int // the range's index in the gainer's window: one stream per index
		Stream     uint64
		Start, End uint64
		Cursor     string // the last cursor installed; "" to start
	}
	// replicaNotOwner refuses a replicaPut for a key outside the
	// receiver's current (or dual-apply previous) arcs, carrying the
	// receiver's epoch so a stale coordinator can refresh its ring.
	replicaNotOwner struct {
		ID  uint64
		Seq uint64
	}
)

// catchUp tracks one inbound transfer window (one epoch's pulls). The
// window stays the node's inbound one after its last range lands.
// Serial-loop-confined; its gate says which ranges remain.
type catchUp struct {
	seq    uint64
	ranges []inRange
}

// inRange is one range of a window: the pull, whether it is done, the id
// of the stream last asked for, the cursor of the last batch installed
// from it, and the stall timer.
type inRange struct {
	TransferPull
	done   bool
	stream uint64
	cursor string
	stall  transport.TimerID
}

// gate is what the read path needs of the inbound window: its epoch, how
// many ranges it has, and those still being pulled. The serial loop
// publishes a new one (Node.gate) when a window begins and each time one
// of its ranges lands; a published gate is never written, so its counts
// outlive the window.
type gate struct {
	seq     uint64
	total   int
	pending []TransferPull
}

// publishGate publishes cu's gate and reports how many ranges remain.
func (n *Node) publishGate(cu *catchUp) int {
	g := &gate{seq: cu.seq, total: len(cu.ranges)}
	for _, r := range cu.ranges {
		if !r.done {
			g.pending = append(g.pending, r.TransferPull)
		}
	}
	n.gate.Store(g)
	return len(g.pending)
}

type (
	xferRetryTag struct {
		seq uint64
		idx int
	}
	drainTag struct{}
)

// xferRetryTimeout re-opens a range that has gone this long without a
// batch (source crash, or a lost request); the cursor makes the new stream
// resume, not restart.
const xferRetryTimeout = 2 * time.Second

// rangeContains reports whether hash falls in the arc (start, end]
// clockwise (wrapping when end < start).
func rangeContains(start, end, hash uint64) bool {
	if start < end {
		return hash > start && hash <= end
	}
	return hash > start || hash <= end
}

// beginCatchUp starts (or resumes) pulling the given ranges for epoch
// seq. Ranges already journaled complete are skipped (WAL replay fills
// the journal before catch-up resumes, so a restarted joiner skips
// finished arcs). Once every range has landed, caughtUp runs in the
// invocation that landed the last. Idempotent per epoch: a repeat while
// the window runs changes nothing, and one after it finished runs
// caughtUp again.
func (n *Node) beginCatchUp(env transport.Env, seq uint64, pulls []TransferPull) {
	if cu := n.inbound; cu != nil && cu.seq == seq {
		if !n.CatchingUp() {
			n.caughtUp(env, seq)
		}
		return
	}
	cu := &catchUp{seq: seq, ranges: make([]inRange, len(pulls))}
	for i, p := range pulls {
		cu.ranges[i] = inRange{TransferPull: p, done: n.xferDone[seq][i]}
	}
	n.inbound = cu
	if n.publishGate(cu) == 0 {
		n.finishCatchUp(env, cu)
		return
	}
	n.openTransfers(env, cu)
}

// openTransfers opens every range of cu not yet done.
func (n *Node) openTransfers(env transport.Env, cu *catchUp) {
	for i := range cu.ranges {
		if !cu.ranges[i].done {
			n.openTransfer(env, cu, i)
		}
	}
}

// CatchingUp reports whether an inbound transfer window is open.
func (n *Node) CatchingUp() bool {
	g := n.gate.Load()
	return g != nil && len(g.pending) > 0
}

// CatchUpProgress reports how many of epoch seq's inbound ranges have
// landed, of how many: 0 of 0 until the node begins pulling for seq.
func (n *Node) CatchUpProgress(seq uint64) (done, total int) {
	if g := n.gate.Load(); g != nil && g.seq == seq {
		return g.total - len(g.pending), g.total
	}
	return 0, 0
}

// openTransfer asks range i's source for a new stream from the range's
// cursor. The new id voids the stream asked for before: the source
// replaces it, and a batch of it still in flight no longer moves the
// cursor. Re-pulling from the last installed cursor is safe because
// installs dedup by dot.
func (n *Node) openTransfer(env transport.Env, cu *catchUp, i int) {
	r := &cu.ranges[i]
	r.stream = n.mintStream()
	env.Send(r.Source, transferReq{Idx: i, Stream: r.stream, Start: r.Start, End: r.End, Cursor: r.cursor})
	n.armStall(env, cu, i)
}

// armStall restarts range i's stall timer. One live timer per range: each
// batch supersedes it, so a slow (throttled) source is not asked twice.
func (n *Node) armStall(env transport.Env, cu *catchUp, i int) {
	r := &cu.ranges[i]
	env.Cancel(r.stall)
	r.stall = env.SetTimer(xferRetryTimeout, xferRetryTag{seq: cu.seq, idx: i})
}

// transferReceived is the transfer receive hook: m, already installed,
// advances (or completes) the range whose current stream it belongs to.
func (n *Node) transferReceived(env transport.Env, dom int, m shipBatch) {
	cu := n.inbound
	if cu == nil {
		return
	}
	i := slices.IndexFunc(cu.ranges, func(r inRange) bool { return r.stream == m.Stream.N })
	if i < 0 || cu.ranges[i].done {
		return // a stream since re-opened, or a repeat of the last batch
	}
	r := &cu.ranges[i]
	n.Transfer.BytesIn.Add(uint64(m.Size()))
	if !m.Done {
		r.cursor = m.Cursor
		n.armStall(env, cu, i)
		return
	}
	r.done = true
	left := n.publishGate(cu)
	env.Cancel(r.stall)
	n.Transfer.RangesDone.Add(1)
	// Journal completion so a restarted node does not re-pull the range.
	n.markTransferDone(cu.seq, i)
	n.persistRecord(dom, walRecord{TransferDone: &transferDoneRec{Seq: cu.seq, Idx: i, Start: r.Start, End: r.End}})
	if left == 0 {
		n.finishCatchUp(env, cu)
	}
}

func (n *Node) markTransferDone(seq uint64, idx int) {
	if n.xferDone[seq] == nil {
		n.xferDone[seq] = make(map[int]bool)
	}
	n.xferDone[seq][idx] = true
}

func (n *Node) finishCatchUp(env transport.Env, cu *catchUp) {
	// Old epochs' completion records are no longer needed for gating.
	for seq := range n.xferDone {
		if seq < cu.seq {
			delete(n.xferDone, seq)
		}
	}
	n.caughtUp(env, cu.seq)
}

// gatedKey reports whether key sits in a still-incomplete inbound range:
// this replica must not serve reads for it yet. Called from shard
// goroutines and the read fast path: one load of the published gate.
func (n *Node) gatedKey(key string) bool {
	g := n.gate.Load()
	if g == nil || len(g.pending) == 0 {
		return false
	}
	h := ring.KeyHash(key)
	for _, p := range g.pending {
		if rangeContains(p.Start, p.End, h) {
			return true
		}
	}
	return false
}

// arcSource walks the keys of the arc (start, end] from cursor on, shard by
// shard and in key order within a shard. The arc is a filter on the ring
// hash, which no engine orders by, so every pair the engines hold is looked
// at, in windows. A cursor is the shard being walked and the first key of
// it not yet looked at; one that is not this source's own starts the range
// over, which is safe.
func (n *Node) arcSource(start, end uint64, cursor string) source {
	shard, lo := 0, ""
	if v, k := binary.Uvarint([]byte(cursor)); k > 0 && v <= uint64(len(n.shards)) {
		shard, lo = int(v), cursor[k:]
	}
	return source{next: func(budget int) shipBatch {
		var f fill
		seen, done := 0, true // seen: pairs this batch has looked at
	walk:
		for ; shard < len(n.shards); shard, lo = shard+1, "" {
			for {
				// Each window is one pair longer than everything looked at
				// before it, so what a batch that fills up leaves unread in
				// its last window is less than what it read: serving a range
				// costs the engines at most twice the pairs they hold.
				limit := seen + 1
				sh := n.shards[shard]
				sh.mu.RLock()
				pairs := sh.store.Scan(lo, "", limit)
				sh.mu.RUnlock()
				for _, p := range pairs {
					seen++
					lo = p.Key + "\x00"
					if rangeContains(start, end, ring.KeyHash(p.Key)) &&
						f.add(budget, p.Key, mustDecodeStored(p.Key, p.Value)) {
						done = false
						break walk
					}
				}
				if len(pairs) < limit {
					break // the shard is exhausted
				}
			}
		}
		return shipBatch{Entries: f.entries, Cursor: string(binary.AppendUvarint(nil, uint64(shard))) + lo, Done: done}
	}}
}

// beginDrain puts the node into decommission drain: it keeps a hint
// stream open to every peer it holds hints for and, when no hints
// remain, leaves (membership.go) in that invocation. Replica-level
// traffic continues — the node is still an owner until its arcs
// transfer; the host refuses its clients' writes.
func (n *Node) beginDrain(env transport.Env) {
	n.draining.Store(true)
	n.drainTick(env)
}

func (n *Node) drainTick(env transport.Env) {
	if !n.draining.Load() {
		return
	}
	if n.PendingHints() == 0 {
		n.leave(env)
		return
	}
	n.handoff(env)
	env.SetTimer(50*time.Millisecond, drainTag{})
}

// Install makes ep the node's membership epoch, with one store: from the
// next operation on, placement, the dual-apply set, the ownership guard,
// the epoch a refusal carries, the members heartbeats and anti-entropy
// visit and every member's zone all come from ep. It runs on the serial
// loop, the one writer, and ep is not written after. A new ring rebuilds
// the anti-entropy trees. Streams to departed
// members are dropped. Hints intended for departed members are dissolved
// into local data (journaled), where anti-entropy re-homes them to the
// keys' current owners — a hint may be an acked write's only copy and
// must never strand behind a dead address.
func (n *Node) Install(ep ring.Epoch) {
	prev := n.epoch.Swap(&ep)
	if n.cfg.AntiEntropy && prev.Ring != ep.Ring {
		n.rebuildTrees()
	}
	ms := ep.Ring.Members()
	// What is kept per peer goes with the peer: its streams (their timers
	// find none and lapse), its geo queue (its arcs re-home through transfer
	// and anti-entropy) and its tree.
	gone := func(peer string) bool { return !slices.Contains(ms, peer) }
	n.out = slices.DeleteFunc(n.out, func(st *outStream) bool { return gone(st.peer) })
	n.geoMu.Lock()
	maps.DeleteFunc(n.geoPeers, func(peer string, _ *geoPeer) bool { return gone(peer) })
	n.geoMu.Unlock()
	n.aeMu.Lock()
	maps.DeleteFunc(n.aeTrees, func(peer string, _ *storage.Merkle) bool { return gone(peer) })
	n.aeMu.Unlock()
	// Snapshot the departed members' hints, then dissolve them (the
	// install and drop paths take the hints lock themselves).
	var orphans []hintRec
	n.hintsMu.Lock()
	for intended, keys := range n.hints {
		if slices.Contains(ms, intended) {
			continue
		}
		for key, entries := range keys {
			for _, e := range entries {
				orphans = append(orphans, hintRec{Intended: intended, Key: key, Entry: e})
			}
		}
	}
	n.hintsMu.Unlock()
	sort.SliceStable(orphans, func(i, j int) bool {
		a, b := orphans[i], orphans[j]
		return a.Intended < b.Intended || a.Intended == b.Intended && a.Key < b.Key
	})
	for _, o := range orphans {
		n.installEntry(0, o.Key, o.Entry)
		if _, left := n.dropHints(o.Intended, o.Key, []clock.SiblingEntry[record]{o.Entry}); left == 0 {
			n.persistRecord(0, walRecord{HintAck: &hintAckRec{Intended: o.Intended, Key: o.Key}})
		}
	}
}

// rebuildTrees re-derives every peer's anti-entropy tree from the store
// under the installed ring: each key this node replicates enters the tree
// of every peer it now shares the key with. A key written before that
// peer entered its preference list is one the peer may lack (a transfer
// pulls from one previous owner, which need not hold every acked write),
// and in no tree it would never be offered. Scanned in windows, each
// under its shard's lock, as installs refresh digests.
func (n *Node) rebuildTrees() {
	n.aeMu.Lock()
	clear(n.aeTrees)
	n.aeMu.Unlock()
	const window = 256
	for _, sh := range n.shards {
		for lo := ""; ; {
			sh.mu.Lock()
			pairs := sh.store.Scan(lo, "", window)
			for _, p := range pairs {
				if slices.Contains(n.PreferenceList(p.Key), n.id) {
					n.noteKeyChanged(p.Key, mustDecodeStored(p.Key, p.Value))
				}
			}
			sh.mu.Unlock()
			if len(pairs) < window {
				break
			}
			lo = pairs[len(pairs)-1].Key + "\x00"
		}
	}
}

// ownsKey reports whether this node may accept a direct replica write
// for key under ep: it is in the preference list, or in the previous
// epoch's while a dual-apply window is open.
func (n *Node) ownsKey(ep *ring.Epoch, key string) bool {
	if prefs, _ := n.cfg.placement(ep, key); slices.Contains(prefs, n.id) {
		return true
	}
	return ep.Prev != nil && slices.Contains(ep.Prev.Replicas(key, n.cfg.N), n.id)
}
