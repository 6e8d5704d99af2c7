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
// When membership changes, the hosting runtime builds the new epoch,
// installs it (Install), computes which arcs of the hash circle gained
// this node (ring.DiffN) and calls BeginCatchUp with a pull per arc.
// The gainer asks a current owner to open a stream (see stream.go) over
// exactly each range — resumable after a crash
// because installs dedup by dot, a stalled range is re-opened at the last
// cursor it installed, and completed ranges are journaled to the WAL —
// while the source token-buckets its sends so foreground
// traffic keeps its latency budget. Until a range completes, the
// gainer's replica refuses reads for keys in it (replicaNotReady), and the
// coordinator falls back to the old owners (which remain in the new
// ring's fallback walk); writes keep landing on both placements via the
// coordinator's dual-apply, so nothing lands in a gap. Anti-entropy
// remains the safety net for anything a transfer window misses.

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

// catchUp tracks one inbound transfer window (one epoch's pulls). Per
// range: whether it is done, the id of the stream last asked for, the
// cursor of the last batch installed from it, and the stall timer. The
// window stays the node's inbound one after its last range lands, with
// nothing remaining, so its counts outlive it.
type catchUp struct {
	seq       uint64
	pulls     []TransferPull
	done      []bool
	stream    []uint64
	cursor    []string
	stall     []transport.TimerID
	remaining int
	onDone    func()
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

// BeginCatchUp starts (or resumes) pulling the given ranges for epoch
// seq. Ranges already journaled complete are skipped (WAL replay fills
// the journal before catch-up resumes, so a restarted joiner skips
// finished arcs). onDone runs on the actor loop once every range has
// landed. Idempotent per epoch: a repeat while the window runs changes
// nothing, and one after it finished runs onDone again.
func (n *Node) BeginCatchUp(env transport.Env, seq uint64, pulls []TransferPull, onDone func()) {
	if cu := n.inbound; cu != nil && cu.seq == seq {
		if cu.remaining == 0 {
			onDone()
		}
		return
	}
	cu := &catchUp{
		seq:    seq,
		pulls:  pulls,
		done:   make([]bool, len(pulls)),
		stream: make([]uint64, len(pulls)),
		cursor: make([]string, len(pulls)),
		stall:  make([]transport.TimerID, len(pulls)),
		onDone: onDone,
	}
	for i := range pulls {
		if n.xferDone[seq][i] {
			cu.done[i] = true
			continue
		}
		cu.remaining++
	}
	n.elMu.Lock()
	n.inbound = cu
	n.elMu.Unlock()
	if cu.remaining == 0 {
		n.finishCatchUp(cu)
		return
	}
	for i := range cu.pulls {
		if !cu.done[i] {
			n.openTransfer(env, cu, i)
		}
	}
}

// CatchingUp reports whether an inbound transfer window is open.
func (n *Node) CatchingUp() bool {
	n.elMu.RLock()
	defer n.elMu.RUnlock()
	return n.inbound != nil && n.inbound.remaining > 0
}

// CatchUpProgress reports how many of epoch seq's inbound ranges have
// landed, of how many: 0 of 0 until BeginCatchUp for seq.
func (n *Node) CatchUpProgress(seq uint64) (done, total int) {
	n.elMu.RLock()
	defer n.elMu.RUnlock()
	if cu := n.inbound; cu != nil && cu.seq == seq {
		return len(cu.pulls) - cu.remaining, len(cu.pulls)
	}
	return 0, 0
}

// openTransfer asks range i's source for a new stream from the range's
// cursor. The new id voids the stream asked for before: the source
// replaces it, and a batch of it still in flight no longer moves the
// cursor. Re-pulling from the last installed cursor is safe because
// installs dedup by dot.
func (n *Node) openTransfer(env transport.Env, cu *catchUp, i int) {
	p := cu.pulls[i]
	cu.stream[i] = n.mintStream()
	env.Send(p.Source, transferReq{Idx: i, Stream: cu.stream[i], Start: p.Start, End: p.End, Cursor: cu.cursor[i]})
	n.armStall(env, cu, i)
}

// armStall restarts range i's stall timer. One live timer per range: each
// batch supersedes it, so a slow (throttled) source is not asked twice.
func (n *Node) armStall(env transport.Env, cu *catchUp, i int) {
	env.Cancel(cu.stall[i])
	cu.stall[i] = env.SetTimer(xferRetryTimeout, xferRetryTag{seq: cu.seq, idx: i})
}

// transferReceived is the transfer receive hook: m, already installed,
// advances (or completes) the range whose current stream it belongs to.
func (n *Node) transferReceived(env transport.Env, dom int, m shipBatch) {
	cu := n.inbound
	if cu == nil {
		return
	}
	i := slices.Index(cu.stream, m.Stream.N)
	if i < 0 || cu.done[i] {
		return // a stream since re-opened, or a repeat of the last batch
	}
	n.Transfer.BytesIn.Add(uint64(m.Size()))
	if !m.Done {
		cu.cursor[i] = m.Cursor
		n.armStall(env, cu, i)
		return
	}
	n.elMu.Lock()
	cu.done[i] = true
	cu.remaining--
	n.elMu.Unlock()
	env.Cancel(cu.stall[i])
	n.Transfer.RangesDone.Add(1)
	// Journal completion so a restarted node does not re-pull the range.
	p := cu.pulls[i]
	n.markTransferDone(cu.seq, i)
	n.persistRecord(dom, walRecord{TransferDone: &transferDoneRec{Seq: cu.seq, Idx: i, Start: p.Start, End: p.End}})
	if cu.remaining == 0 {
		n.finishCatchUp(cu)
	}
}

func (n *Node) markTransferDone(seq uint64, idx int) {
	if n.xferDone[seq] == nil {
		n.xferDone[seq] = make(map[int]bool)
	}
	n.xferDone[seq][idx] = true
}

func (n *Node) finishCatchUp(cu *catchUp) {
	// Old epochs' completion records are no longer needed for gating.
	for seq := range n.xferDone {
		if seq < cu.seq {
			delete(n.xferDone, seq)
		}
	}
	cu.onDone()
}

// gatedKey reports whether key sits in a still-incomplete inbound range:
// this replica must not serve reads for it yet. Called from shard
// goroutines and the read fast path, hence the lock.
func (n *Node) gatedKey(key string) bool {
	n.elMu.RLock()
	defer n.elMu.RUnlock()
	cu := n.inbound
	if cu == nil || cu.remaining == 0 {
		return false
	}
	h := ring.KeyHash(key)
	for i, p := range cu.pulls {
		if !cu.done[i] && rangeContains(p.Start, p.End, h) {
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

// BeginDrain puts the node into decommission drain: it keeps a hint
// stream open to every peer it holds hints for, calling onDrained (once,
// on the actor loop) when no hints remain. Replica-level traffic
// continues — the node is still an owner until its arcs transfer; the
// host refuses its clients' writes.
func (n *Node) BeginDrain(env transport.Env, onDrained func()) {
	n.draining.Store(true)
	n.onDrained = onDrained
	n.drainTick(env)
}

func (n *Node) drainTick(env transport.Env) {
	if !n.draining.Load() {
		return
	}
	if n.PendingHints() == 0 {
		if n.onDrained != nil {
			cb := n.onDrained
			n.onDrained = nil
			cb()
		}
		return
	}
	n.handoff(env)
	env.SetTimer(50*time.Millisecond, drainTag{})
}

// Draining reports whether BeginDrain has been called.
func (n *Node) Draining() bool { return n.draining.Load() }

// Install makes ep the node's membership epoch, with one store: from the
// next operation on, placement, the dual-apply set, the ownership guard,
// the epoch a refusal carries, the members heartbeats and anti-entropy
// visit and every member's zone all come from ep. It runs on the serial
// loop, the one writer, and ep is not written after. Streams to departed
// members are dropped. Hints intended for departed members are dissolved
// into local data (journaled), where anti-entropy re-homes them to the
// keys' current owners — a hint may be an acked write's only copy and
// must never strand behind a dead address.
func (n *Node) Install(ep ring.Epoch) {
	n.epoch.Store(&ep)
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

// ownsKey reports whether this node may accept a direct replica write
// for key under ep: it is in the preference list, or in the previous
// epoch's while a dual-apply window is open.
func (n *Node) ownsKey(ep *ring.Epoch, key string) bool {
	if prefs, _ := n.placement(ep, key); slices.Contains(prefs, n.id) {
		return true
	}
	return ep.Prev != nil && slices.Contains(ep.Prev.Replicas(key, n.cfg.N), n.id)
}

// onNotOwner handles a replica refusing one of our writes: the refusal
// carries the refuser's epoch, and a newer one means our ring is stale —
// surface it so the runtime can pull the current membership. The pending
// operation is left to its other replicas (or its timeout): hinting a
// stand-in for a node that is not an owner would strand the write.
func (n *Node) onNotOwner(m replicaNotOwner) {
	n.Transfer.NotOwnerSeen.Add(1)
	if n.cfg.OnStaleRing != nil && m.Seq > n.epoch.Load().Seq {
		n.cfg.OnStaleRing(m.Seq)
	}
}
