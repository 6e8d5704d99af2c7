package quorum

import (
	"fmt"
	"sync"

	"repro/internal/clock"
	"repro/internal/resilience"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Sharded execution. With Config.Shards = S the node's replica state
// splits into S key-range shards, each an independent execution domain:
// the hosting transport (which discovers the split through the
// ShardedHandler methods below) drains every shard on its own shard loop
// beside the serial loop, so key-addressed traffic for disjoint shards
// executes concurrently on separate cores, and answers replica reads on
// the delivering goroutine (FastHandle). Control traffic — membership,
// the anti-entropy descent, every stream that ships versions to a peer —
// still runs on the serial actor loop, which is why the shared
// structures it touches carry their own locks (hints, Merkle trees) or
// are published atomically (the catch-up gate), while the per-request
// coordination maps stay lock-free (each is only ever touched by its
// shard's loop). The
// simulator hosts the node in one domain, which is as correct: every
// invocation there is serial.
//
// Shard assignment reuses the Merkle tree's key hash, so a shard covers
// a contiguous range of Merkle buckets and a ring arc maps onto whole
// shards (see storage.ShardRouter). With S == 1 everything lands in
// shard 0 and request ids are the classic 1, 2, 3, ... (id = seq*S +
// shard).

// nodeShard is one shard of a node's replica state.
type nodeShard struct {
	// mu guards store: the owning shard goroutine mutates it on the
	// write path while the serial loop reads and writes it for the
	// streams' sources and installs, and for snapshots. The
	// engine is internally synchronized, but mu still serializes the
	// read-modify-write install cycle around it.
	mu sync.RWMutex
	// store holds the shard's sibling sets, one engine entry per key,
	// the value a binary entry list (see encodeStored). Which
	// engine backs it — in-memory KV or disk-resident LSM — is the
	// host's choice via Config.Storage.
	store storage.Engine

	// Coordination state is executor-confined: only the shard's own
	// loop (or, under the simulator, the node's one domain) touches it,
	// because request ids are issued congruent to the shard index and
	// acks/responses/timers route back by id. No lock needed.
	nextReq uint64
	writes  map[uint64]*pendingWrite
	// writeSteps is the buffer the shard's writes step into (see onWrite).
	writeSteps []writeStep
	reads      map[uint64]*pendingRead
	// readSteps is the buffer the shard's reads step into (see onRead).
	readSteps []readStep
	// repairs holds reads that answered and still wait for replicas they
	// asked, whose late answers read repair compares (see read.go).
	repairs map[uint64]*pendingRead
	// rtt holds the round trips of the shard's reads' peer asks, the
	// samples a read's hedge delay is a quantile of (see pendingRead.tick).
	rtt resilience.Latency
	// out holds the operations of this node's own clients that it
	// forwarded to another coordinator (see forward.go).
	out requests
}

func newNodeShard(store storage.Engine, out requests) *nodeShard {
	return &nodeShard{
		store:   store,
		writes:  make(map[uint64]*pendingWrite),
		reads:   make(map[uint64]*pendingRead),
		repairs: make(map[uint64]*pendingRead),
		out:     out,
	}
}

// entries returns key's sibling set as stored, or nil. The decoded values
// alias the engine's bytes (see decodeStored). Caller holds sh.mu (read
// suffices).
func (sh *nodeShard) entries(key string) []clock.SiblingEntry[record] {
	v, ok := sh.store.Get(key)
	if !ok {
		return nil
	}
	return mustDecodeStored(key, v)
}

// dots returns the dots of key's stored versions, read from the bytes
// the engine lends, in place: no context is decoded and no value copied.
// Caller holds sh.mu (read suffices).
func (sh *nodeShard) dots(key string) []clock.Dot {
	r := dotReaders.Get().(*dotReader)
	r.key = key
	sh.store.View(key, r.read)
	dots := r.dots
	r.key, r.dots = "", nil
	dotReaders.Put(r)
	return dots
}

// dotReader is the callback dots lends to Engine.View, with the key it
// reads and the dots it finds. A closure handed to an interface
// method escapes, and a fresh one per digest answer would cost two
// objects (itself and the result it writes), so readers are pooled with
// their callback bound.
type dotReader struct {
	key  string
	dots []clock.Dot
	read func([]byte)
}

var dotReaders = sync.Pool{New: func() any {
	r := new(dotReader)
	r.read = func(v []byte) {
		var err error
		if r.dots, err = storedDots(v); err != nil {
			panic(fmt.Sprintf("quorum: key %q: %v", r.key, err)) // see mustDecodeStored
		}
	}
	return r
}}

// mustDecodeStored decodes a value read back from a shard's engine.
func mustDecodeStored(key string, b []byte) []clock.SiblingEntry[record] {
	es, err := decodeStored(b)
	if err != nil {
		// CheckStoredFormat vetted the store at boot and every value
		// written since is encodeStored's own output (CRC-verified on the
		// disk path), so only a bug gets here.
		panic(fmt.Sprintf("quorum: key %q: %v", key, err))
	}
	return es
}

// setEntries stores key's sibling set back into the engine, replacing
// the one it held. Caller holds sh.mu for writing.
func (sh *nodeShard) setEntries(key string, es []clock.SiblingEntry[record]) {
	sh.store.Put(key, encodeStored(es), nil)
}

// Stored-value layout: [storedFormat][entry list], the entry list exactly
// as the wire codec frames it inside a replicaGetResp (appendEntries).
// The leading byte versions the layout under wire.CheckFormat's rule, so
// a value written before the binary layout existed is refused with
// wire.ErrFormatTooOld, not mis-decoded.
const storedFormat = 0xE1

// encodeStored serializes a sibling entry list for engine storage, into
// one exactly-sized allocation.
func encodeStored(es []clock.SiblingEntry[record]) []byte {
	out := make([]byte, 1, 1+entriesSize(es))
	out[0] = storedFormat
	return appendEntries(out, es)
}

// decodeStored is the inverse of encodeStored. Value slices of the result
// alias b: engine values are immutable once stored (a new set is a new
// buffer), so the entries stay valid for as long as they are
// referenced and must never be written through. A stored list holds
// mutually concurrent survivors in insertion order, so feeding it to
// clock.AddSibling as is continues the set it was taken from.
func decodeStored(b []byte) ([]clock.SiblingEntry[record], error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("quorum: stored sibling set: %w", wire.ErrMalformed)
	}
	if err := wire.CheckFormat("quorum: stored sibling set", b[0], storedFormat); err != nil {
		return nil, err
	}
	r := wire.NewReader(b[1:])
	es := readEntries(r)
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("quorum: stored sibling set: %w", err)
	}
	return es, nil
}

// storedDots returns the dot of every version in stored value b:
// decodeStored's walk, with readEntryDot for readEntry.
func storedDots(b []byte) ([]clock.Dot, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("quorum: stored sibling set: %w", wire.ErrMalformed)
	}
	if err := wire.CheckFormat("quorum: stored sibling set", b[0], storedFormat); err != nil {
		return nil, err
	}
	var r wire.Reader
	r.Reset(b[1:])
	n, _ := r.ListLen()
	dots := make([]clock.Dot, 0, n)
	for i := 0; i < n; i++ {
		dots = append(dots, readEntryDot(&r))
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("quorum: stored sibling set: %w", err)
	}
	return dots, nil
}

// CheckStoredFormat vets one stored value per shard. A store is written
// by one version from its first value on (this check is what keeps a
// newer version from adding to an older store), so the first key stands
// for all of them. The host calls it before replay touches the store;
// the in-memory engine is empty then, a disk-resident one is not.
func (n *Node) CheckStoredFormat() error {
	for i, sh := range n.shards {
		for _, p := range sh.store.Scan("", "", 1) {
			if _, err := decodeStored(p.Value); err != nil {
				return fmt.Errorf("shard %d key %q: %w", i, p.Key, err)
			}
		}
	}
	return nil
}

// shardFor returns the shard owning key.
func (n *Node) shardFor(key string) *nodeShard {
	return n.shards[n.router.Shard(key)]
}

// reqShard returns the shard that coordinates request id. Ids are issued
// as seq*S + shard, so the residue recovers the owner.
func (n *Node) reqShard(id uint64) *nodeShard {
	return n.shards[int(id%uint64(len(n.shards)))]
}

// mintReq mints a request id on shard idx: the id of a coordination,
// and of a client operation the node runs for its own process, which
// names that operation's write (see CoordinatePut). Ids from different
// shards never collide (distinct residues mod S) and the responses they
// tag route straight back to the minting shard's executor. With S == 1
// this degenerates to the classic 1, 2, 3, ...
func (n *Node) mintReq(idx int) uint64 {
	sh := n.shards[idx]
	sh.nextReq++
	return sh.nextReq*uint64(len(n.shards)) + uint64(idx)
}

// StartRequestsAt makes base the floor of the request ids the node
// mints: every one is above it. A node whose id outlives its process
// passes a floor above every id an earlier incarnation issued, since a
// client operation's id names its write, and replicas discard, yet still
// ack, a dot they have already seen. Call it before the node runs.
func (n *Node) StartRequestsAt(base uint64) {
	for _, sh := range n.shards {
		sh.nextReq = base / uint64(len(n.shards))
	}
}

// members returns the installed epoch's member set (sorted; shared, so
// not to be written).
func (n *Node) members() []string {
	return n.epoch.Load().Ring.Members()
}

// A Runtime discovers the node's shards through this interface, on a
// bare Node or through transport.WithSharding.
var _ transport.ShardedHandler = (*Node)(nil)

// Shards implements transport.Sharding: the number of shard loops this
// node wants beside its serial loop.
func (n *Node) Shards() int { return len(n.shards) }

// ShardOf implements transport.Sharding: key-addressed requests go
// to the key's shard, responses (a coordinator's answer to an operation
// this node forwarded among them) go back to the shard that issued the
// request id, and everything else (-1) keeps the serial actor loop.
func (n *Node) ShardOf(msg transport.Message) int {
	s := uint64(len(n.shards))
	switch m := msg.(type) {
	case clientPut:
		return n.router.Shard(m.Key)
	case clientGet:
		return n.router.Shard(m.Key)
	case replicaPut:
		return n.router.Shard(m.Key)
	case replicaGet:
		return n.router.Shard(m.Key)
	case replicaDigest:
		return n.router.Shard(m.Key)
	case replicaPutAck:
		return int(m.ID % s)
	case replicaNotOwner:
		return int(m.ID % s)
	case replicaGetResp:
		return int(m.ID % s)
	case replicaDigestResp:
		return int(m.ID % s)
	case replicaNotReady:
		return int(m.ID % s)
	case putResp:
		return int(m.ID % s)
	case getResp:
		return int(m.ID % s)
	default:
		return -1
	}
}

// FastHandle implements transport.Sharding: a replicaGet or a
// replicaDigest touches only lock-guarded or atomically published state
// (sibling sets, hints, the catch-up gate), so it can be answered on the
// delivering goroutine without queueing through any mailbox. Every other
// message falls back to normal dispatch.
func (n *Node) FastHandle(env transport.Env, from string, msg transport.Message) bool {
	switch m := msg.(type) {
	case replicaGet:
		n.answerReplicaGet(env, from, m)
	case replicaDigest:
		n.answerDigest(env, from, m)
	default:
		return false
	}
	return true
}

// refuseGated answers ask id with replicaNotReady when key's arc is
// still being pulled: answering from a partial copy could serve a gap.
// The coordinator counts someone else — the old owners are in the new
// ring's fallback walk.
func (n *Node) refuseGated(env transport.Env, from string, id uint64, key string) bool {
	if !n.gatedKey(key) {
		return false
	}
	n.Transfer.GatedReads.Add(1)
	env.Send(from, replicaNotReady{ID: id})
	return true
}

// answerReplicaGet serves a replica read in full. It and answerDigest
// are called from the owning shard's goroutine, from the serial loop
// (sim hosting), or from the transport's fast path; every structure they
// read is safe under concurrent mutation.
func (n *Node) answerReplicaGet(env transport.Env, from string, m replicaGet) {
	if n.refuseGated(env, from, m.ID, m.Key) {
		return
	}
	entries := n.localEntries(m.Key)
	if n.cfg.Resilience != nil {
		// A fallback replica answers with the hinted writes it holds
		// too — during a partition they are the freshest (often only)
		// copies reachable from this side.
		entries = append(entries, n.hintedEntries(m.Key)...)
	}
	env.Send(from, replicaGetResp{ID: m.ID, Entries: entries})
}

// answerDigest serves a digest read: the dots of the stored versions,
// read out of the engine's bytes, then those of the hinted ones.
func (n *Node) answerDigest(env transport.Env, from string, m replicaDigest) {
	if n.refuseGated(env, from, m.ID, m.Key) {
		return
	}
	dots := n.localDots(m.Key)
	if n.cfg.Resilience != nil {
		for _, e := range n.hintedEntries(m.Key) {
			dots = append(dots, e.DVV.Dot)
		}
	}
	env.Send(from, replicaDigestResp{ID: m.ID, Dots: dots})
}

// Router exposes the node's key→shard mapping (the same hash the Merkle
// trees bucket by), letting the host route WAL replay and report
// per-shard state.
func (n *Node) Router() storage.ShardRouter { return n.router }
