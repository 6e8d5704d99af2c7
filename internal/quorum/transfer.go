package quorum

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/ring"
	"repro/internal/transport"
)

// Live elasticity: streaming arc handoff between quorum replicas.
//
// When membership changes, the hosting runtime computes which arcs of
// the hash circle gained this node (ring.DiffN) and calls BeginCatchUp
// with a pull per arc. The gainer streams exactly those ranges from a
// current owner in cursor-ordered batches — resumable after a crash
// because installs dedup by dot and completed ranges are journaled to
// the WAL — while the source token-buckets its sends so foreground
// traffic keeps its latency budget. Until a range completes, the
// gainer's replica answers reads for keys in it with NotReady, and the
// coordinator falls back to the old owners (which remain in the new
// ring's fallback walk); writes keep landing on both placements via the
// coordinator's dual-apply, so nothing lands in a gap. Anti-entropy
// remains the safety net for anything a transfer window misses.

// Elasticity is the hook the hosting runtime wires in so the quorum
// protocol can see the membership epoch and, while a transfer window is
// open, the previous epoch's placement. All methods run on the node's
// actor loop. A nil Elastic disables every elasticity path.
type Elasticity interface {
	// EpochSeq returns the current membership epoch sequence.
	EpochSeq() uint64
	// PrevSequence returns key's placement walk under the previous
	// epoch's ring while a transfer window is open, nil when settled.
	PrevSequence(key string) []string
}

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

// Protocol messages (wire ids 35–37, see wire.go).
type (
	// transferReq asks Source for the next batch of (Start, End] at the
	// cursor. Nonce pairs a request with its batch so a retransmitted
	// request cannot double-advance the cursor.
	transferReq struct {
		Seq        uint64
		Idx        int
		Nonce      uint64
		Start, End uint64
		CurHash    uint64
		CurKey     string
		Max        int
	}
	// transferBatch carries the next run of keys in (KeyHash, key)
	// order, the cursor after them, and whether the range is finished.
	transferBatch struct {
		Seq     uint64
		Idx     int
		Nonce   uint64
		Entries []aeEntry
		CurHash uint64
		CurKey  string
		Done    bool
	}
	// replicaNotOwner refuses a replicaPut for a key outside the
	// receiver's current (or dual-apply previous) arcs, carrying the
	// receiver's epoch so a stale coordinator can refresh its ring.
	replicaNotOwner struct {
		ID  uint64
		Seq uint64
	}
)

// Size implements the sim bandwidth hook.
func (m transferBatch) Size() int { return aePush{Entries: m.Entries}.Size() }

// catchUp tracks one inbound transfer window (one epoch's pulls).
type catchUp struct {
	seq        uint64
	pulls      []TransferPull
	done       []bool
	nonce      []uint64
	retry      []transport.TimerID
	remaining  int
	onProgress func(done, total int)
	onDone     func()
}

// xferKey identifies one range of one epoch.
type xferKey struct {
	seq uint64
	idx int
}

// stashedBatch is a built batch whose send the token bucket delayed.
type stashedBatch struct {
	to    string
	batch transferBatch
}

type (
	xferRetryTag struct {
		seq uint64
		idx int
	}
	xferFlushTag struct {
		seq uint64
		idx int
	}
	drainTag struct{}
)

// xferRetryTimeout re-requests a range whose batch never arrived (source
// crash or lost message); the cursor makes the re-request resume, not
// restart.
const xferRetryTimeout = 2 * time.Second

// defaultTransferRate / defaultTransferBatch bound source-side streaming:
// ~8MiB/s refill, ~64KiB per batch.
const (
	defaultTransferRate  = 8 << 20
	defaultTransferBatch = 64 << 10
)

func (n *Node) transferRate() int {
	if n.cfg.TransferRate > 0 {
		return n.cfg.TransferRate
	}
	return defaultTransferRate
}

func (n *Node) transferBatchMax() int {
	if n.cfg.TransferBatch > 0 {
		return n.cfg.TransferBatch
	}
	return defaultTransferBatch
}

// rangeContains reports whether hash falls in the arc (start, end]
// clockwise (wrapping when end < start).
func rangeContains(start, end, hash uint64) bool {
	if start < end {
		return hash > start && hash <= end
	}
	return hash > start || hash <= end
}

// TransferDoneFor reports how many of epoch seq's ranges this node has
// already journaled complete (WAL replay fills this before catch-up
// resumes, so a restarted joiner skips finished arcs).
func (n *Node) TransferDoneFor(seq uint64) int {
	return len(n.xferDone[seq])
}

// BeginCatchUp starts (or resumes) pulling the given ranges for epoch
// seq. Ranges already journaled complete are skipped. onProgress runs
// after each completed range, onDone once when every range has landed —
// both on the actor loop. Idempotent per epoch.
func (n *Node) BeginCatchUp(env transport.Env, seq uint64, pulls []TransferPull, onProgress func(done, total int), onDone func()) {
	if n.inbound != nil && n.inbound.seq == seq {
		return // duplicate begin: the window is already running
	}
	cu := &catchUp{
		seq:        seq,
		pulls:      pulls,
		done:       make([]bool, len(pulls)),
		nonce:      make([]uint64, len(pulls)),
		retry:      make([]transport.TimerID, len(pulls)),
		onProgress: onProgress,
		onDone:     onDone,
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
		n.finishCatchUp(env)
		return
	}
	if cu.onProgress != nil {
		cu.onProgress(len(cu.pulls)-cu.remaining, len(cu.pulls))
	}
	for i := range cu.pulls {
		if !cu.done[i] {
			n.sendTransferReq(env, cu, i, 0, "")
		}
	}
}

// CatchingUp reports whether an inbound transfer window is open.
func (n *Node) CatchingUp() bool {
	n.elMu.RLock()
	defer n.elMu.RUnlock()
	return n.inbound != nil
}

func (n *Node) sendTransferReq(env transport.Env, cu *catchUp, i int, curHash uint64, curKey string) {
	cu.nonce[i]++
	p := cu.pulls[i]
	env.Send(p.Source, transferReq{
		Seq: cu.seq, Idx: i, Nonce: cu.nonce[i],
		Start: p.Start, End: p.End,
		CurHash: curHash, CurKey: curKey,
		Max: n.transferBatchMax(),
	})
	// One live retry timer per range: a batch arrival supersedes it, so a
	// slow (throttled) source is not flooded with overlapping re-requests.
	env.Cancel(cu.retry[i])
	cu.retry[i] = env.SetTimer(xferRetryTimeout, xferRetryTag{seq: cu.seq, idx: i})
}

// retryTransfer re-requests a range whose batch is overdue. The nonce
// bump invalidates any in-flight batch so the cursor cannot be advanced
// twice; re-pulling from the last acked cursor is safe because installs
// dedup by dot.
func (n *Node) retryTransfer(env transport.Env, tg xferRetryTag) {
	cu := n.inbound
	if cu == nil || cu.seq != tg.seq || tg.idx >= len(cu.done) || cu.done[tg.idx] {
		return
	}
	c := n.xferCursor[xferKey{tg.seq, tg.idx}]
	n.sendTransferReq(env, cu, tg.idx, c.hash, c.key)
}

type cursorPos struct {
	hash uint64
	key  string
}

// handleTransferBatch installs one batch on the gainer and advances (or
// completes) the range.
func (n *Node) handleTransferBatch(env transport.Env, m transferBatch) {
	cu := n.inbound
	if cu == nil || cu.seq != m.Seq || m.Idx >= len(cu.done) || cu.done[m.Idx] {
		return
	}
	if m.Nonce != cu.nonce[m.Idx] {
		return // stale batch from a superseded request
	}
	dom := execDomain(env)
	size := 0
	for _, e := range m.Entries {
		for _, s := range e.Entries {
			n.installEntry(dom, e.Key, s)
			size += len(e.Key) + len(s.Value.Value) + 16*len(s.DVV.Context) + 16
		}
	}
	n.Transfer.BytesIn.Add(uint64(size))
	if !m.Done {
		n.xferCursor[xferKey{m.Seq, m.Idx}] = cursorPos{hash: m.CurHash, key: m.CurKey}
		n.sendTransferReq(env, cu, m.Idx, m.CurHash, m.CurKey)
		return
	}
	n.elMu.Lock()
	cu.done[m.Idx] = true
	n.elMu.Unlock()
	cu.remaining--
	env.Cancel(cu.retry[m.Idx])
	delete(n.xferCursor, xferKey{m.Seq, m.Idx})
	n.Transfer.RangesDone.Add(1)
	// Journal completion so a restarted node does not re-pull the range.
	p := cu.pulls[m.Idx]
	n.markTransferDone(m.Seq, m.Idx)
	n.persistRecord(dom, walRecord{TransferDone: &transferDoneRec{Seq: m.Seq, Idx: m.Idx, Start: p.Start, End: p.End}})
	if cu.onProgress != nil {
		cu.onProgress(len(cu.pulls)-cu.remaining, len(cu.pulls))
	}
	if cu.remaining == 0 {
		n.finishCatchUp(env)
	}
}

func (n *Node) markTransferDone(seq uint64, idx int) {
	if n.xferDone == nil {
		n.xferDone = make(map[uint64]map[int]bool)
	}
	if n.xferDone[seq] == nil {
		n.xferDone[seq] = make(map[int]bool)
	}
	n.xferDone[seq][idx] = true
}

func (n *Node) finishCatchUp(env transport.Env) {
	cu := n.inbound
	n.elMu.Lock()
	n.inbound = nil
	n.elMu.Unlock()
	// Old epochs' completion records are no longer needed for gating.
	for seq := range n.xferDone {
		if seq < cu.seq {
			delete(n.xferDone, seq)
		}
	}
	if cu.onProgress != nil {
		cu.onProgress(len(cu.pulls), len(cu.pulls))
	}
	if cu.onDone != nil {
		cu.onDone()
	}
}

// gatedKey reports whether key sits in a still-incomplete inbound range:
// this replica must not serve reads for it yet. Called from shard
// goroutines and the read fast path, hence the lock.
func (n *Node) gatedKey(key string) bool {
	n.elMu.RLock()
	defer n.elMu.RUnlock()
	cu := n.inbound
	if cu == nil {
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

// handleTransferReq streams one batch from a current owner, bounded by
// Max bytes and paced by the node's token bucket.
func (n *Node) handleTransferReq(env transport.Env, from string, m transferReq) {
	type kh struct {
		hash uint64
		key  string
	}
	// Collect and order the keys in the arc; the cursor is exclusive.
	// Each shard is scanned under its own read lock — the arc only
	// overlaps the shards whose hash range it intersects, but scanning
	// all of them keeps the (serial-loop) source path simple.
	var keys []kh
	for _, sh := range n.shards {
		sh.mu.RLock()
		for _, p := range sh.store.Scan("", "", 0) {
			key := p.Key
			h := ring.KeyHash(key)
			if !rangeContains(m.Start, m.End, h) {
				continue
			}
			if h < m.CurHash || (h == m.CurHash && key <= m.CurKey) {
				continue
			}
			keys = append(keys, kh{hash: h, key: key})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].hash != keys[j].hash {
			return keys[i].hash < keys[j].hash
		}
		return keys[i].key < keys[j].key
	})
	batch := transferBatch{Seq: m.Seq, Idx: m.Idx, Nonce: m.Nonce, Done: true}
	size := 0
	for i, k := range keys {
		es := n.localEntries(k.key)
		batch.Entries = append(batch.Entries, aeEntry{Key: k.key, Entries: es})
		for _, s := range es {
			size += len(k.key) + len(s.Value.Value) + 16*len(s.DVV.Context) + 16
		}
		if size >= m.Max && i < len(keys)-1 {
			batch.Done = false
			batch.CurHash, batch.CurKey = k.hash, k.key
			break
		}
	}
	n.sendThrottled(env, from, batch, size)
}

// sendThrottled charges size against the token bucket and either sends
// the batch now or stashes it behind a timer until the bucket refills.
func (n *Node) sendThrottled(env transport.Env, to string, batch transferBatch, size int) {
	rate := float64(n.transferRate())
	now := env.Now()
	if n.tbInit {
		n.tbTokens += rate * (now - n.tbLast).Seconds()
	} else {
		n.tbTokens = rate // a full second of burst to start
		n.tbInit = true
	}
	if n.tbTokens > rate {
		n.tbTokens = rate
	}
	n.tbLast = now
	n.tbTokens -= float64(size)
	n.Transfer.BytesOut.Add(uint64(size))
	if n.tbTokens >= 0 {
		env.Send(to, batch)
		return
	}
	// Overdrawn: delay the send until the deficit refills. At most one
	// batch per (seq, idx) is in flight (the puller waits for it), so
	// the stash slot cannot be clobbered by a concurrent batch.
	n.Transfer.ThrottleWaits.Add(1)
	wait := time.Duration(-n.tbTokens / rate * float64(time.Second))
	if n.xferOut == nil {
		n.xferOut = make(map[xferKey]stashedBatch)
	}
	n.xferOut[xferKey{batch.Seq, batch.Idx}] = stashedBatch{to: to, batch: batch}
	env.SetTimer(wait, xferFlushTag{seq: batch.Seq, idx: batch.Idx})
}

func (n *Node) flushThrottled(env transport.Env, tg xferFlushTag) {
	k := xferKey{tg.seq, tg.idx}
	st, ok := n.xferOut[k]
	if !ok {
		return
	}
	delete(n.xferOut, k)
	env.Send(st.to, st.batch)
}

// BeginDrain puts the node into decommission drain: it stops minting
// dots for node-coordinated writes and aggressively flushes its hinted
// handoff queues, calling onDrained (once, on the actor loop) when no
// hints remain. Replica-level traffic continues — the node is still an
// owner until its arcs transfer.
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
	n.attemptHandoff(env)
	env.SetTimer(50*time.Millisecond, drainTag{})
}

// Draining reports whether BeginDrain has been called.
func (n *Node) Draining() bool { return n.draining.Load() }

// MintedDots returns the total dot counters this node has issued —
// frozen once draining begins (the decommission invariant).
func (n *Node) MintedDots() uint64 {
	var total uint64
	for _, sh := range n.shards {
		sh.mu.RLock()
		for _, c := range sh.minted {
			total += c
		}
		sh.mu.RUnlock()
	}
	return total
}

// SetMembers installs the new member set for heartbeats and anti-entropy
// after a membership epoch lands. Hints intended for departed members
// are dissolved into local data (journaled), where anti-entropy re-homes
// them to the keys' current owners — a hint may be an acked write's only
// copy and must never strand behind a dead address.
func (n *Node) SetMembers(members []string) {
	ms := append([]string(nil), members...)
	sort.Strings(ms)
	n.members.Store(&ms)
	n.geoDropPeers(ms)
	n.aeMu.Lock()
	for peer := range n.aeTrees {
		if peer != n.id && !contains(ms, peer) {
			delete(n.aeTrees, peer)
		}
	}
	n.aeMu.Unlock()
	// Snapshot the departed members' hints, then dissolve them (the
	// install and drop paths take the hints lock themselves).
	type orphan struct {
		intended, key string
		entries       []clock.SiblingEntry[record]
	}
	var orphans []orphan
	n.hintsMu.Lock()
	for intended := range n.hints {
		if contains(ms, intended) {
			continue
		}
		hintKeys := make([]string, 0, len(n.hints[intended]))
		for key := range n.hints[intended] {
			hintKeys = append(hintKeys, key)
		}
		sort.Strings(hintKeys)
		for _, key := range hintKeys {
			entries := append([]clock.SiblingEntry[record](nil), n.hints[intended][key]...)
			orphans = append(orphans, orphan{intended: intended, key: key, entries: entries})
		}
	}
	n.hintsMu.Unlock()
	for _, o := range orphans {
		for _, e := range o.entries {
			n.installEntry(0, o.key, e)
		}
		n.dropHints(o.intended, o.key)
		n.persistRecord(0, walRecord{HintAck: &hintAckRec{Intended: o.intended, Key: o.key}})
	}
}

// ownsKey reports whether this node may accept a direct replica write
// for key: it is in the current preference list, or in the previous
// epoch's while a dual-apply window is open.
func (n *Node) ownsKey(key string) bool {
	if contains(n.PreferenceList(key), n.id) {
		return true
	}
	if prev := n.cfg.Elastic.PrevSequence(key); prev != nil {
		lim := n.cfg.N
		if lim > len(prev) {
			lim = len(prev)
		}
		return contains(prev[:lim], n.id)
	}
	return false
}

// onNotOwner handles a replica refusing one of our writes: the refusal
// carries the refuser's epoch, and a newer one means our ring is stale —
// surface it so the runtime can pull the current membership. The pending
// operation is left to its other replicas (or its timeout): hinting a
// stand-in for a node that is not an owner would strand the write.
func (n *Node) onNotOwner(m replicaNotOwner) {
	n.Transfer.NotOwnerSeen.Add(1)
	if n.cfg.OnStaleRing != nil && n.cfg.Elastic != nil && m.Seq > n.cfg.Elastic.EpochSeq() {
		n.cfg.OnStaleRing(m.Seq)
	}
}
