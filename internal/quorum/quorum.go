// Package quorum implements Dynamo-style partial-quorum replication: every
// key has N replicas chosen from a ring; a write is acknowledged after W
// replica acks and a read returns after R replica responses. R + W > N
// makes reads observe the latest acknowledged write (a strict quorum);
// smaller R and W trade freshness for latency and availability — the
// "tunable consistency" knob the tutorial discusses, quantified by
// experiments E2 (probabilistically bounded staleness) and E3 (the R/W
// sweep).
//
// Versioning uses dotted version vectors: concurrent writes surface as
// siblings, a write that echoes its read context supersedes what it read,
// and sibling explosion is bounded (ablation A3). Optional mechanisms:
// read repair (stale replicas are fixed on the read path) and sloppy
// quorums with hinted handoff (fallback replicas accept writes for
// unreachable members and deliver them later).
package quorum

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/resilience"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Config configures every node of a quorum store.
type Config struct {
	// Ring lists all storage nodes in ring order. Every node must use the
	// same Ring.
	Ring []string
	// N is the replication factor.
	N int
	// R is the read quorum (responses needed before a read returns).
	R int
	// W is the write quorum (acks needed before a write returns).
	W int
	// Timeout bounds how long a coordinator waits for a quorum before
	// failing the request (or engaging fallbacks under SloppyQuorum).
	// Default 500ms.
	Timeout time.Duration
	// ReadRepair pushes the merged result to stale replicas after a read.
	ReadRepair bool
	// SloppyQuorum lets the coordinator count fallback-replica acks
	// toward W, with hinted handoff delivering the write to the intended
	// replica later.
	SloppyQuorum bool
	// HandoffInterval is how often hinted writes are retried (default
	// 200ms).
	HandoffInterval time.Duration
	// AntiEntropy enables background Merkle-tree reconciliation between
	// replicas (Dynamo's second repair mechanism, fixing divergence on
	// keys that are never read).
	AntiEntropy bool
	// AntiEntropyInterval is the reconciliation period (default 500ms).
	AntiEntropyInterval time.Duration
	// Resilience, when non-nil, enables the fault-tolerance layer on
	// every node: replica-RPC retransmission with backoff, fast sloppy
	// fallback for suspected replicas, and liveness heartbeats feeding
	// the failure detector.
	Resilience *resilience.Policy
	// Directory is the shared phi-accrual failure detector (normally fed
	// by the simulator's delivery hook). Used only when Resilience is set.
	Directory *resilience.Directory
	// Counters receives resilience event counts. May be nil.
	Counters *resilience.Counters
	// PersistAt, when set, journals every durable-state mutation (sibling
	// installs, hint stores/acks, minted dot counters) before any
	// acknowledgement leaves the node — the hook the server runtime
	// wires to its WAL. domain names where the mutation ran, as
	// Env.Domain does: 0 is the serial actor loop, 1+i shard i's loop (a
	// node the simulator hosts runs in domain 0 alone), and the record
	// carries a routing header so replay can repartition it (see
	// ReplayDomain). It may be invoked concurrently from different
	// domains, never concurrently within one. rec is valid only during
	// the call: the domain's next record reuses its buffer, so a hook
	// that keeps rec must copy it.
	PersistAt func(domain int, rec []byte)
	// Shards splits the node's replica state into this many key-range
	// execution domains (rounded up to a power of two; default 1, fully
	// serial). See shard.go.
	Shards int
	// Storage, when non-nil, builds the storage engine backing each
	// replica-state shard (called once per shard index in [0, Shards
	// rounded up)). Default: the in-memory storage.KV. The server wires
	// disk-resident LSM engines through this; engines are released by
	// Node.Close.
	Storage func(shard int) storage.Engine
	// Placement, when non-nil, overrides Ring-order placement: a key's
	// preference list is Sequence(key)[:N] and its sloppy fallbacks the
	// remainder of the sequence. internal/ring's consistent-hash ring
	// implements this; Ring must still list every node (it drives
	// heartbeats and shared-key anti-entropy).
	Placement Placement
	// Elastic, when non-nil, enables the elasticity paths (see
	// transfer.go): the ownership guard on replica writes, dual-apply to
	// the previous epoch's owners during transfer windows, and read
	// gating on catching-up replicas.
	Elastic Elasticity
	// OnStaleRing is invoked (on the actor loop) when a peer's refusal
	// reveals this node's membership epoch is behind the cluster's.
	OnStaleRing func(seq uint64)
	// TransferRate bounds outbound transfer streaming in bytes/sec
	// (default ~8MiB/s); TransferBatch bounds one batch of every stream
	// that ships versions to a peer (default 64KiB, see stream.go).
	TransferRate  int
	TransferBatch int
	// Zone names this node's zone and Zones maps every ring node to its
	// zone; both inform geo-replication (see geo.go). Empty/absent zones
	// group together, so an unzoned cluster is a single zone.
	Zone  string
	Zones map[string]string
	// GeoAsync acknowledges writes on an intra-zone sub-quorum
	// (min(W, in-zone replicas)) and replicates to other zones
	// asynchronously through the per-peer geo replicator.
	GeoAsync bool
}

// Placement maps a key to an ordered walk of distinct storage nodes —
// replicas first, then fallbacks. Every node must resolve the identical
// sequence for a key (the same vnode layout), which consistent hashing
// gives for free. The walk may be shared between lookups (a ring.Ring
// hands out its own): the node and everything it hands the walk to only
// read it.
type Placement interface {
	Sequence(key string) []string
}

func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = 500 * time.Millisecond
	}
	if c.HandoffInterval <= 0 {
		c.HandoffInterval = 200 * time.Millisecond
	}
	if c.AntiEntropyInterval <= 0 {
		c.AntiEntropyInterval = 500 * time.Millisecond
	}
	if c.TransferRate <= 0 {
		c.TransferRate = 8 << 20
	}
	if c.TransferBatch <= 0 {
		c.TransferBatch = 64 << 10
	}
	if c.Resilience != nil {
		c.Resilience = c.Resilience.Normalized()
	}
	return c
}

// Validate checks the configuration shape, returning an explicit error
// instead of the silent misbehavior an impossible quorum would produce.
func (c Config) Validate() error {
	if len(c.Ring) == 0 {
		return errors.New("quorum: Ring must not be empty")
	}
	if c.N <= 0 || c.N > len(c.Ring) {
		return fmt.Errorf("quorum: N=%d must be in [1, len(Ring)=%d]", c.N, len(c.Ring))
	}
	if c.R < 1 || c.R > c.N {
		return fmt.Errorf("quorum: R=%d must be in [1, N=%d]", c.R, c.N)
	}
	if c.W < 1 || c.W > c.N {
		return fmt.Errorf("quorum: W=%d must be in [1, N=%d]", c.W, c.N)
	}
	return nil
}

// record is a replicated value (or tombstone).
type record struct {
	Value   []byte
	Deleted bool
}

// GetResult is delivered to the client when a read completes.
type GetResult struct {
	Key string
	// Values holds the live sibling values (concurrent versions). Empty
	// means not found (or all siblings deleted).
	Values [][]byte
	// Context is the causal context to echo on the next Put of this key.
	Context clock.Vector
	// Err is non-nil when the quorum was not reached in time.
	Err error
	// Replicas is how many replicas contributed before returning.
	Replicas int
}

// PutResult is delivered to the client when a write completes.
type PutResult struct {
	Key string
	// Context supersedes the write; echo it on a subsequent Put to
	// overwrite.
	Context clock.Vector
	// Err is non-nil when the quorum was not reached in time.
	Err error
	// Sloppy reports whether fallback replicas were needed.
	Sloppy bool
}

// quorumError is the failure type for unreachable quorums.
type quorumError string

func (e quorumError) Error() string { return string(e) }

// ErrQuorumTimeout is returned when a coordinator cannot assemble the
// required quorum within the timeout — the "unavailable" outcome CAP
// forces on strict quorums during partitions.
const ErrQuorumTimeout = quorumError("quorum: timeout waiting for quorum")

// Protocol messages.
type (
	clientPut struct {
		ID      uint64
		Key     string
		Value   []byte
		Deleted bool
		Context clock.Vector
	}
	clientGet struct {
		ID  uint64
		Key string
		// R, when > 0, overrides the configured read quorum for this
		// request (capped at the preference-list size) — how SLA tiers
		// trade freshness for latency: an eventual-tier read asks R=1 of
		// an in-zone coordinator.
		R int
	}
	putResp struct {
		ID      uint64
		Context clock.Vector
		Err     string
		Sloppy  bool
	}
	getResp struct {
		ID       uint64
		Values   [][]byte
		Context  clock.Vector
		Err      string
		Replicas int
	}
	replicaPut struct {
		ID     uint64
		Key    string
		Entry  clock.SiblingEntry[record]
		Hint   string // non-empty: store as hint for this intended node
		Repair bool   // read-repair writes need no ack
	}
	replicaPutAck struct {
		ID uint64
	}
	// replicaGet asks a replica for the key's sibling set in full, values
	// and all; replicaDigest asks it for the dots only. A read needs R
	// answers to decide freshness and one value to answer, so a
	// coordinator that holds a replica of the key asks only that replica
	// in full.
	replicaGet struct {
		ID  uint64
		Key string
	}
	replicaDigest struct {
		ID  uint64
		Key string
	}
	// replicaGetResp answers a replicaGet. It does not echo the key: an
	// answer routes by ID (ShardOf), and the pending read holds the key.
	replicaGetResp struct {
		ID      uint64
		Entries []clock.SiblingEntry[record]
	}
	// replicaDigestResp answers a replicaDigest with the dot of every
	// version the replica holds for the key, hinted ones included. A dot
	// is all the coordinator's supersession check reads of a version
	// (clock.Siblings.Covers), so the context, the value and the
	// tombstone bit stay home.
	replicaDigestResp struct {
		ID   uint64
		Dots []clock.Dot
	}
	// replicaNotReady is a catching-up replica's refusal of either ask:
	// the key's arc has not finished transferring, so the answer must not
	// count toward R.
	replicaNotReady struct {
		ID uint64
	}
	// resPing/resPong are liveness heartbeats exchanged between ring
	// nodes when resilience is enabled. They carry nothing: the arrival
	// itself is the failure-detector evidence, and the pong gives the
	// pinger evidence about the pingee.
	resPing struct{}
	resPong struct{}
)

// Size implements the sim bandwidth hook.
func (m replicaPut) Size() int {
	return len(m.Key) + len(m.Entry.Value.Value) + 16*len(m.Entry.DVV.Context) + 16
}

// Size implements the sim bandwidth hook.
func (m replicaGetResp) Size() int {
	n := 0
	for _, e := range m.Entries {
		n += len(e.Value.Value) + 16*len(e.DVV.Context) + 16
	}
	return n
}

// Size implements the sim bandwidth hook.
func (m replicaDigestResp) Size() int { return 16 * len(m.Dots) }

type pendingWrite struct {
	client    string
	reply     func(transport.Env, putResp) // the answer's call when client is in this process (see answer)
	id        uint64
	key       string
	entry     clock.SiblingEntry[record]
	acked     []string // replicas (or fallbacks) that acked, each once; starts in ackedBuf
	ackedBuf  [3]string
	needed    int
	replicas  []string // intended preference list
	fallbacks []string // next ring nodes for sloppy quorum
	sloppy    bool
	done      bool
	timer     transport.TimerID

	// Resilience state.
	hinted  map[string]bool // prefs a fallback already stands in for (nil until one does)
	fi      int             // next unused fallback index
	fbTried bool            // quorum-timeout fallback engagement done
	attempt int             // retransmission rounds spent

	// geoAsync lists cross-zone prefs served by the replicator instead
	// of synchronous replicaPuts; retries and fallback engagement skip
	// them (they are intentionally un-acked here).
	geoAsync []string
}

// readAnswer is one node's answer to a read: its sibling entries, or
// the dots of a digest.
type readAnswer struct {
	entries []clock.SiblingEntry[record]
	dots    []clock.Dot
	digest  bool
}

// len returns how many versions the answer names.
func (a readAnswer) len() int {
	if a.digest {
		return len(a.dots)
	}
	return len(a.entries)
}

// dot returns the dot of the answer's i-th version.
func (a readAnswer) dot(i int) clock.Dot {
	if a.digest {
		return a.dots[i]
	}
	return a.entries[i].DVV.Dot
}

// names reports whether the answer names exactly the versions of merged,
// by dot: all a read learns of a digest, and all it needs of a full
// answer to tell whether its replica needs repair.
func (a readAnswer) names(merged []clock.SiblingEntry[record]) bool {
	if a.len() != len(merged) {
		return false
	}
	for i := 0; i < a.len(); i++ {
		found := false
		for _, e := range merged {
			if e.DVV.Dot == a.dot(i) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

type pendingRead struct {
	client    string
	reply     func(transport.Env, getResp) // see pendingWrite.reply
	id        uint64
	key       string
	responses map[string]readAnswer
	needed    int
	replicas  []string
	done      bool
	timer     transport.TimerID

	// digests is set when the coordinator holds a replica of the key:
	// that replica alone is asked for values, every other node for a
	// digest. It is read off the preference list, not configured.
	digests bool
	// asked is everyone this read has been sent to, and whether the ask
	// that stands is for a digest (a re-ask in full clears it).
	asked map[string]bool

	// Resilience state.
	fallbacks []string
	fi        int
	attempt   int
}

// owes reports whether target has yet to answer the ask that stands: it
// has not answered at all, or with a digest where its values have since
// been asked for.
func (pr *pendingRead) owes(target string) bool {
	a, ok := pr.responses[target]
	return !ok || (a.digest && !pr.asked[target])
}

// merge folds the read's answers under DVV supersession and names the
// responders whose values are still needed. Only answers that carry
// values go into merged, so none of its entries ever lacks one; digests
// are checked against it, and a digest naming a version merged does not
// cover (a dot that survives and that nobody sent) puts its responder in
// missing. An empty missing means every surviving dot has its value. A
// read asked in full everywhere is the degenerate case: nothing to
// check. Both passes walk the preference list and then the fallbacks in
// ring order, never the responses map, so sibling order is a function of
// the seed.
func (pr *pendingRead) merge() (merged *clock.Siblings[record], missing []string) {
	merged = new(clock.Siblings[record])
	nodes := len(pr.replicas) + pr.fi
	answer := func(i int) (string, readAnswer, bool) {
		node := ""
		if i < len(pr.replicas) {
			node = pr.replicas[i]
		} else {
			node = pr.fallbacks[i-len(pr.replicas)]
		}
		a, ok := pr.responses[node]
		return node, a, ok
	}
	for i := 0; i < nodes; i++ {
		if _, a, ok := answer(i); ok && !a.digest {
			for _, e := range a.entries {
				merged.Add(e.DVV, e.Value)
			}
		}
	}
	for i := 0; i < nodes; i++ {
		node, a, ok := answer(i)
		if !ok || !a.digest {
			continue
		}
		for _, d := range a.dots {
			if !merged.Covers(d) {
				missing = append(missing, node)
				break
			}
		}
	}
	return merged, missing
}

// Node is one storage node of the quorum store. It implements
// transport.Handler. All nodes are symmetric: a client may send a request to
// any node, which forwards it to a coordinator in the key's preference
// list.
type Node struct {
	cfg Config
	id  string

	// members is the live membership list: shard goroutines walk it for
	// placement while SetMembers swaps it on the serial loop.
	members atomic.Pointer[[]string]

	// Replica state lives in key-range shards (one with Shards <= 1);
	// router maps keys to them. See shard.go for the locking story.
	router storage.ShardRouter
	shards []*nodeShard

	// recBufs holds one journal record buffer per execution domain (0 is
	// the serial loop, 1+i shard i), reused by persistRecord. Each is
	// confined to its domain, as Config.PersistAt's calls are.
	recBufs [][]byte

	// hints holds writes accepted on behalf of unreachable nodes:
	// intended node -> key -> entries. Guarded by hintsMu: stored on the
	// key's shard goroutine, shipped and acked on the serial loop.
	hintsMu sync.Mutex
	hints   map[string]map[string][]clock.SiblingEntry[record]

	// out holds the open outbound streams, in the order they were opened
	// (see stream.go), and lastStream the last stream id minted.
	// Serial-loop-confined.
	out        []*outStream
	lastStream uint64

	// aeTrees holds one Merkle tree per peer, covering exactly the keys
	// both nodes replicate (see antientropy.go). aeMu guards the map;
	// each tree is internally synchronized.
	aeMu    sync.Mutex
	aeTrees map[string]*storage.Merkle

	// Elasticity state (see transfer.go). elMu guards inbound and its
	// completion flags — the read path consults them from shard
	// goroutines (gatedKey) while the serial loop advances the transfer.
	// xferDone remembers journaled range completions per epoch so a
	// restart resumes instead of re-pulling (serial-loop-confined).
	elMu      sync.RWMutex
	inbound   *catchUp
	xferDone  map[uint64]map[int]bool
	draining  atomic.Bool
	onDrained func()
	// Token bucket pacing outbound transfer batches.
	tbTokens float64
	tbLast   time.Duration

	// Geo-replication state (see geo.go). geoMu guards geoPeers and
	// zoneHigh: enqueue runs on write shard goroutines, ship/ack on the
	// serial loop, and the metrics endpoint reads both off-loop.
	geoMu    sync.Mutex
	geoPeers map[string]*geoPeer
	zoneHigh map[string]int64 // source zone -> high-water wall-clock ms

	// installHook, when a test sets it before the node runs, sees every
	// entry handed to installEntry, stored or not: where the tests pin
	// that nothing a digest carried is ever installed.
	installHook func(key string, e clock.SiblingEntry[record])

	// Stats (written with atomic adds: shard goroutines race each other).
	ReadRepairsSent uint64
	HintsStored     uint64
	HintsDelivered  uint64
	AESyncs         uint64
	// Geo replicator counters (atomic; read off-loop by /metrics).
	GeoShipped uint64
	GeoAcked   uint64
	GeoResends uint64
	GeoBeacons uint64
	// Transfer counts elasticity activity (atomic: read off-loop by the
	// metrics endpoint).
	Transfer TransferStats
}

// NewNode returns a quorum node with the given shared configuration. It
// panics on an invalid configuration (see Config.Validate).
func NewNode(id string, cfg Config) *Node {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	router := storage.NewShardRouter(cfg.Shards)
	engineFor := cfg.Storage
	if engineFor == nil {
		engineFor = func(int) storage.Engine { return storage.NewKV() }
	}
	shards := make([]*nodeShard, router.Shards())
	for i := range shards {
		shards[i] = newNodeShard(engineFor(i))
	}
	n := &Node{
		cfg:        cfg,
		id:         id,
		router:     router,
		shards:     shards,
		recBufs:    make([][]byte, len(shards)+1),
		hints:      make(map[string]map[string][]clock.SiblingEntry[record]),
		lastStream: uint64(time.Now().UnixNano()),
		aeTrees:    make(map[string]*storage.Merkle),
		geoPeers:   make(map[string]*geoPeer),
		zoneHigh:   make(map[string]int64),
		xferDone:   make(map[uint64]map[int]bool),
		tbTokens:   float64(cfg.TransferRate),
	}
	members := append([]string(nil), cfg.Ring...)
	n.members.Store(&members)
	return n
}

// PreferenceList returns the N replicas for key, in priority order. The
// list may be the Placement's shared walk and must not be written.
func (n *Node) PreferenceList(key string) []string {
	prefs, _ := n.placement(key)
	return prefs
}

// placement returns key's N replicas in priority order and, after them,
// the rest of the ring in walk order — the fallbacks of a sloppy quorum —
// both cut from one walk.
func (n *Node) placement(key string) (prefs, fallbacks []string) {
	if n.cfg.Placement != nil {
		if seq := n.cfg.Placement.Sequence(key); len(seq) >= n.cfg.N {
			return seq[:n.cfg.N:n.cfg.N], seq[n.cfg.N:]
		}
	}
	ring := n.ring()
	h := fnv.New64a()
	h.Write([]byte(key))
	start := int(h.Sum64() % uint64(len(ring)))
	seq := make([]string, max(len(ring), n.cfg.N))
	for i := range seq {
		seq[i] = ring[(start+i)%len(ring)]
	}
	return seq[:n.cfg.N:n.cfg.N], seq[n.cfg.N:]
}

type handoffTag struct{}

type timeoutTag struct {
	id    uint64
	write bool
}

// pingTag paces liveness heartbeats; rpcRetryTag paces replica-RPC
// retransmission rounds for one pending operation.
type pingTag struct{}

type rpcRetryTag struct {
	id    uint64
	write bool
}

// OnStart implements transport.Handler.
func (n *Node) OnStart(env transport.Env) {
	if n.cfg.SloppyQuorum {
		env.SetTimer(n.cfg.HandoffInterval, handoffTag{})
	}
	if n.cfg.AntiEntropy {
		// Jittered so replicas do not reconcile in lockstep.
		d := n.cfg.AntiEntropyInterval/2 + time.Duration(env.Rand().Int63n(int64(n.cfg.AntiEntropyInterval)))
		env.SetTimer(d, aeTick{})
	}
	if n.cfg.Resilience != nil {
		// Jittered so heartbeats do not fire in lockstep across the ring.
		hi := n.cfg.Resilience.HeartbeatInterval
		env.SetTimer(hi/2+time.Duration(env.Rand().Int63n(int64(hi))), pingTag{})
	}
	if n.cfg.GeoAsync {
		env.SetTimer(geoFlushInterval, geoFlushTag{})
		env.SetTimer(geoBeaconInterval/2+time.Duration(env.Rand().Int63n(int64(geoBeaconInterval))), geoBeaconTag{})
	}
	// A node the simulator crashed and restarted kept its streams and lost
	// their timers.
	for _, st := range n.out {
		n.transmit(env, st)
	}
}

// OnTimer implements transport.Handler.
func (n *Node) OnTimer(env transport.Env, tag any) {
	switch tg := tag.(type) {
	case handoffTag:
		n.handoff(env)
		env.SetTimer(n.cfg.HandoffInterval, handoffTag{})
	case aeTick:
		n.startAntiEntropy(env)
		env.SetTimer(n.cfg.AntiEntropyInterval, aeTick{})
	case timeoutTag:
		if tg.write {
			n.writeTimeout(env, tg.id)
		} else {
			n.readTimeout(env, tg.id)
		}
	case pingTag:
		for _, peer := range n.ring() {
			if peer != n.id {
				env.Send(peer, resPing{})
			}
		}
		env.SetTimer(n.cfg.Resilience.HeartbeatInterval, pingTag{})
	case rpcRetryTag:
		if tg.write {
			n.retryWrite(env, tg.id)
		} else {
			n.retryRead(env, tg.id)
		}
	case xferRetryTag:
		if cu := n.inbound; cu != nil && cu.seq == tg.seq && !cu.done[tg.idx] {
			n.openTransfer(env, cu, tg.idx) // the range's stream has stalled: re-open it at its cursor
		}
	case *outStream:
		if slices.Contains(n.out, tg) {
			if tg.id.Kind == streamGeo {
				atomic.AddUint64(&n.GeoResends, 1)
			}
			n.transmit(env, tg)
		}
	case drainTag:
		n.drainTick(env)
	case geoFlushTag:
		n.geoFlush(env)
	case geoBeaconTag:
		n.geoBeacon(env)
	}
}

// OnMessage implements transport.Handler.
func (n *Node) OnMessage(env transport.Env, from string, msg transport.Message) {
	switch m := msg.(type) {
	case clientPut:
		n.coordinatePut(env, from, m, nil)
	case clientGet:
		n.coordinateGet(env, from, m, nil)
	case replicaPut:
		n.applyReplicaPut(env, from, m)
	case replicaPutAck:
		n.onPutAck(env, from, m.ID)
	case replicaGet:
		n.answerReplicaGet(env, from, m)
	case replicaDigest:
		n.answerDigest(env, from, m)
	case replicaGetResp:
		n.onAnswer(env, from, m.ID, readAnswer{entries: m.Entries})
	case replicaDigestResp:
		n.onAnswer(env, from, m.ID, readAnswer{dots: m.Dots, digest: true})
	case replicaNotReady:
		n.onNotReady(env, m.ID)
	case shipBatch:
		n.onShipBatch(env, from, m)
	case shipAck:
		n.onShipAck(env, from, m)
	case resPing:
		env.Send(from, resPong{})
	case resPong:
		// The delivery itself was the evidence (observed by the sim hook).
	case aeReq:
		n.handleAEReq(env, from, m)
	case aeResp:
		n.shipBuckets(env, from, m.Buckets)
		atomic.AddUint64(&n.AESyncs, 1)
	case transferReq:
		// A gainer opens (or re-opens at its cursor) a range's stream, under
		// an id it chose, in place of the one still open for that range.
		n.openStream(env, from, streamID{streamTransfer, m.Stream}, m.Idx, n.arcSource(m.Start, m.End, m.Cursor))
	case replicaNotOwner:
		n.onNotOwner(m)
	case geoStamp:
		n.noteZoneHigh(m)
	}
}

func (n *Node) localEntries(key string) []clock.SiblingEntry[record] {
	sh := n.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.entries(key) // decoded fresh; safe past the unlock
}

// localDots returns the dots of key's stored versions, read in place
// (see nodeShard.dots).
func (n *Node) localDots(key string) []clock.Dot {
	sh := n.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.dots(key)
}

// Close releases the per-shard storage engines (flushing disk-resident
// ones). The node must be detached from its transport first.
func (n *Node) Close() error {
	var first error
	for _, sh := range n.shards {
		if err := sh.store.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// hintedEntries returns every hinted write this node holds for key, in
// sorted intended-node order so response contents are deterministic.
func (n *Node) hintedEntries(key string) []clock.SiblingEntry[record] {
	n.hintsMu.Lock()
	defer n.hintsMu.Unlock()
	var out []clock.SiblingEntry[record]
	for _, intended := range sortedKeys(n.hints) {
		out = append(out, n.hints[intended][key]...)
	}
	return out
}

// coordinatePut runs the write protocol at whichever node the client
// contacted (Cassandra-style coordination): mint a new version, send it
// to the key's N replicas, and acknowledge the client after W replica
// acks. When the coordinator is one of the synchronous replicas it does
// not message itself: after the fan-out it installs the version in place
// and counts its own ack, so a write that needs W-1 peers waits for
// exactly those. The install journals the version in this invocation,
// so a host that holds acks behind the journal (the server's ack barrier)
// holds the answer behind it too, whether it leaves now or with a later
// peer ack. The acknowledgement is a putResp to client, or a call of
// reply for a client in this process (see answer).
func (n *Node) coordinatePut(env transport.Env, client string, m clientPut, reply func(transport.Env, putResp)) {
	if n.draining.Load() && m.ID == 0 {
		// Decommission invariant: once draining begins this node mints no
		// new dots. (Client-minted dots carry their own identity and may
		// still coordinate; the hosting runtime redirects clients away
		// anyway.)
		answer(env, client, reply, putResp{ID: m.ID, Err: "quorum: node draining"})
		return
	}
	prefs, fallbacks := n.placement(m.Key)

	// Mint the new version: the context is exactly what the client
	// causally observed (a blind write must sibling with, not supersede,
	// versions it never read); the dot sits beyond the context.
	var dvv clock.DVV
	if m.ID != 0 {
		// Client-derived dot: (client, request id) names the write
		// itself, not the coordination attempt — a retried request,
		// even through a different coordinator, mints the identical dot
		// and Siblings.Add applies it at most once. The request id is
		// unique and increasing per client, so the dot always clears the
		// client's own entry in the echoed context; the max guards
		// against a malformed context anyway.
		ctx := m.Context.Copy()
		dvv = clock.DVV{Dot: clientDot(client, m.ID, ctx), Context: ctx}
	} else {
		sh := n.shardFor(m.Key)
		sh.mu.Lock()
		dvv = clock.MintDVV(n.id, m.Context, sh.minted[m.Key])
		sh.minted[m.Key] = dvv.Dot.Counter
		sh.mu.Unlock()
		// Journal the counter: reissuing a dot after a crash would let
		// two distinct writes silently supersede each other.
		n.persistRecord(env.Domain(), walRecord{Mint: &mintRec{Key: m.Key, Counter: dvv.Dot.Counter}})
	}
	entry := clock.SiblingEntry[record]{DVV: dvv, Value: record{Value: m.Value, Deleted: m.Deleted}}

	shardIdx := n.router.Shard(m.Key)
	id := n.mintReq(shardIdx)
	pw := &pendingWrite{
		client:   client,
		reply:    reply,
		id:       m.ID,
		key:      m.Key,
		entry:    entry,
		needed:   n.cfg.W,
		replicas: prefs,
	}
	pw.acked = pw.ackedBuf[:0]
	if n.cfg.SloppyQuorum {
		pw.fallbacks = fallbacks
	}
	// Geo async: replicas in the coordinator's zone stay synchronous and
	// the ack quorum shrinks to the intra-zone sub-quorum; cross-zone
	// replicas are fed by the retained replicator stream instead (see
	// geo.go). With a zone-diverse ring every zone holds a replica, so
	// the local sub-quorum is never empty.
	syncPrefs := prefs
	if n.cfg.GeoAsync {
		if s, a := n.splitGeo(prefs); len(s) > 0 && len(a) > 0 {
			syncPrefs = s
			if pw.needed > len(s) {
				pw.needed = len(s)
			}
			pw.geoAsync = a
			for _, rep := range a {
				n.geoEnqueue(rep, m.Key, entry)
			}
		}
	}
	n.shards[shardIdx].writes[id] = pw

	put := transport.Message(replicaPut{ID: id, Key: m.Key, Entry: entry}) // boxed once for every peer
	self := false
	for _, rep := range syncPrefs {
		if rep == n.id {
			self = true
			continue
		}
		env.Send(rep, put)
		// A replica the failure detector already suspects gets a sloppy
		// stand-in immediately instead of after the quorum timeout.
		if n.cfg.Resilience != nil && n.cfg.SloppyQuorum && n.suspects(rep, env.Now()) {
			n.engageFallback(env, id, pw, rep)
		}
	}
	// Dual-apply: while a transfer window is open, the write also lands
	// on the previous epoch's owners that fell out of the preference
	// list, so reads falling back to them (catch-up gating) stay fresh
	// and an aborted transfer leaves no gap. Unacked repair writes: the
	// quorum is still counted against the current epoch's replicas.
	if n.cfg.Elastic != nil {
		if prev := n.cfg.Elastic.PrevSequence(m.Key); prev != nil {
			lim := n.cfg.N
			if lim > len(prev) {
				lim = len(prev)
			}
			for _, old := range prev[:lim] {
				if slices.Contains(prefs, old) {
					continue
				}
				if old == n.id {
					n.installEntry(env.Domain(), m.Key, entry)
					continue
				}
				env.Send(old, replicaPut{Key: m.Key, Entry: entry, Repair: true})
			}
		}
	}
	if self {
		// applyReplicaPut's ownership guard holds by construction: this
		// node is in the key's preference list.
		n.installEntry(env.Domain(), m.Key, entry)
		pw.acked = append(pw.acked, n.id)
		if len(pw.acked) >= pw.needed {
			n.finishWrite(env, id, pw, "")
			return
		}
	}
	pw.timer = env.SetTimer(n.cfg.Timeout, timeoutTag{id: id, write: true})
	if n.cfg.Resilience != nil {
		env.SetTimer(n.cfg.Resilience.RetryTimeout, rpcRetryTag{id: id, write: true})
	}
}

// clientDot is the dot of request id from client, carrying context ctx:
// the request id, lifted past the client's own entry in ctx. The client
// derives it too, for a put that got no answer (Client.fail).
func clientDot(client string, id uint64, ctx clock.Vector) clock.Dot {
	if c := ctx.Get(client); c >= id {
		id = c + 1
	}
	return clock.Dot{Node: client, Counter: id}
}

// suspects consults the shared failure detector for this node's view of
// peer (false when no detector is wired).
func (n *Node) suspects(peer string, now time.Duration) bool {
	return n.cfg.Directory != nil && n.cfg.Directory.Suspects(n.id, peer, now)
}

// engageFallback sends the pending write to the next unused fallback as
// a hinted stand-in for pref. Idempotent per pref.
func (n *Node) engageFallback(env transport.Env, id uint64, pw *pendingWrite, pref string) bool {
	if pw.hinted[pref] || pw.fi >= len(pw.fallbacks) {
		return false
	}
	fb := pw.fallbacks[pw.fi]
	pw.fi++
	if pw.hinted == nil {
		pw.hinted = make(map[string]bool)
	}
	pw.hinted[pref] = true
	pw.sloppy = true
	env.Send(fb, replicaPut{ID: id, Key: pw.key, Entry: pw.entry, Hint: pref})
	return true
}

// retryWrite is one retransmission round for a pending write: resend the
// entry to every replica that has not acked, within the policy's attempt
// budget, backing off between rounds.
func (n *Node) retryWrite(env transport.Env, id uint64) {
	pw, ok := n.reqShard(id).writes[id]
	if !ok || pw.done {
		return
	}
	pol := n.cfg.Resilience
	pw.attempt++
	if pw.attempt >= pol.MaxAttempts {
		if n.cfg.Counters != nil {
			n.cfg.Counters.Suppressed()
		}
		return
	}
	now := env.Now()
	for _, rep := range pw.replicas {
		if slices.Contains(pw.acked, rep) || slices.Contains(pw.geoAsync, rep) {
			continue
		}
		env.Send(rep, replicaPut{ID: id, Key: pw.key, Entry: pw.entry})
		if n.cfg.Counters != nil {
			n.cfg.Counters.Retry()
		}
		if n.cfg.SloppyQuorum && n.suspects(rep, now) {
			n.engageFallback(env, id, pw, rep)
		}
	}
	env.SetTimer(pol.Backoff(pw.attempt, env.Rand()), rpcRetryTag{id: id, write: true})
}

func (n *Node) applyReplicaPut(env transport.Env, from string, m replicaPut) {
	// Ownership guard: a direct replica write for a key outside this
	// node's current arcs (and outside any open dual-apply window) means
	// the coordinator placed it with a stale ring. Refuse with our epoch
	// instead of silently absorbing a write the read path will never
	// find here. Hinted stand-ins and repair/dual-apply pushes are
	// exempt — they are intentionally addressed off the preference list.
	if n.cfg.Elastic != nil && m.Hint == "" && !m.Repair && !n.ownsKey(m.Key) {
		env.Send(from, replicaNotOwner{ID: m.ID, Seq: n.cfg.Elastic.EpochSeq()})
		return
	}
	if m.Hint != "" && m.Hint != n.id {
		// Store on behalf of the unreachable intended replica. Retried
		// RPCs may re-deliver the same write: storeHint dedups by dot so
		// the queue stays at-most-once like the sibling sets themselves.
		if n.storeHint(m.Hint, m.Key, m.Entry) {
			atomic.AddUint64(&n.HintsStored, 1)
			n.persistRecord(env.Domain(), walRecord{Hint: &hintRec{Intended: m.Hint, Key: m.Key, Entry: m.Entry}})
		}
	} else {
		n.installEntry(env.Domain(), m.Key, m.Entry)
	}
	if !m.Repair {
		env.Send(from, replicaPutAck{ID: m.ID})
	}
}

func (n *Node) onPutAck(env transport.Env, from string, id uint64) {
	pw, ok := n.reqShard(id).writes[id]
	if !ok || pw.done {
		return
	}
	if slices.Contains(pw.acked, from) {
		return // a retransmission's second ack
	}
	pw.acked = append(pw.acked, from)
	if len(pw.acked) >= pw.needed {
		n.finishWrite(env, id, pw, "")
	}
}

func (n *Node) finishWrite(env transport.Env, id uint64, pw *pendingWrite, errStr string) {
	pw.done = true
	delete(n.reqShard(id).writes, id)
	env.Cancel(pw.timer)
	ctx := pw.entry.DVV.Context.Copy()
	if ctx.Get(pw.entry.DVV.Dot.Node) < pw.entry.DVV.Dot.Counter {
		ctx[pw.entry.DVV.Dot.Node] = pw.entry.DVV.Dot.Counter
	}
	answer(env, pw.client, pw.reply, putResp{ID: pw.id, Context: ctx, Err: errStr, Sloppy: pw.sloppy})
}

// answer delivers a coordinator's answer r to its client: a message to
// the client's address, or, when the client is in this process and handed
// the coordinator reply (Node.CoordinatePut), a call of reply with the Env
// of the invocation the operation completed in. A host that holds a
// message back until the invocation's records are durable (the server's
// ack barrier) holds the call's answer the same way through that Env.
func answer[R any](env transport.Env, client string, reply func(transport.Env, R), r R) {
	if reply == nil {
		env.Send(client, r)
		return
	}
	reply(env, r)
}

func (n *Node) writeTimeout(env transport.Env, id uint64) {
	pw, ok := n.reqShard(id).writes[id]
	if !ok || pw.done {
		return
	}
	if n.cfg.SloppyQuorum && !pw.fbTried && len(pw.fallbacks) > 0 {
		// Engage one fallback per unacked preference replica, each
		// carrying a hint naming the replica it stands in for. Fallback
		// acks count toward W; hinted handoff later delivers the write
		// to the intended replica. (Replicas the failure detector
		// suspected already have stand-ins; engageFallback skips them.)
		pw.fbTried = true
		engaged := pw.sloppy
		for _, rep := range pw.replicas {
			if slices.Contains(pw.acked, rep) || slices.Contains(pw.geoAsync, rep) {
				continue
			}
			if n.engageFallback(env, id, pw, rep) {
				engaged = true
			}
		}
		if engaged {
			pw.timer = env.SetTimer(n.cfg.Timeout, timeoutTag{id: id, write: true})
			return
		}
	}
	n.finishWrite(env, id, pw, string(ErrQuorumTimeout))
}

// coordinateGet runs the read protocol at whichever node the client
// contacted: query all N replicas, return after the fastest R responses.
// The coordinator does not short-circuit through its own local state;
// its own replica (when it is one) answers through the message path like
// any other, so which R replicas "win" is decided by delivery timing —
// the race probabilistically-bounded staleness quantifies.
//
// What is asked of each replica depends on where the coordinator stands.
// Whether a version is superseded is decided from its dot alone, so R
// answers' dots decide which versions the read returns and each of those
// needs its value from one place only. A coordinator in the key's preference list asks its own
// replica for values and the others for digests; when the digests name a
// version its replica did not have, it asks that responder again in full
// (onAnswer). A coordinator outside the list asks everyone in full.
//
// The answer goes to the client as coordinatePut's does.
func (n *Node) coordinateGet(env transport.Env, client string, m clientGet, reply func(transport.Env, getResp)) {
	prefs, fallbacks := n.placement(m.Key)
	shardIdx := n.router.Shard(m.Key)
	id := n.mintReq(shardIdx)
	needed := n.cfg.R
	if m.R > 0 {
		// Per-request SLA override: an eventual-tier read asks for R=1.
		// Capped at the preference-list size so it can always complete.
		needed = m.R
		if needed > len(prefs) {
			needed = len(prefs)
		}
	}
	pr := &pendingRead{
		client:    client,
		reply:     reply,
		id:        m.ID,
		key:       m.Key,
		responses: make(map[string]readAnswer),
		needed:    needed,
		replicas:  prefs,
		digests:   slices.Contains(prefs, n.id),
		asked:     make(map[string]bool),
	}
	if (n.cfg.Resilience != nil && n.cfg.SloppyQuorum) || n.cfg.Elastic != nil {
		// Under elasticity the fallback walk matters even without sloppy
		// quorums: a catching-up replica refuses (replicaNotReady) and the read
		// must reach the old owners further along the new ring's walk.
		pr.fallbacks = fallbacks
	}
	n.shards[shardIdx].reads[id] = pr
	for _, rep := range prefs {
		n.ask(env, id, pr, rep, pr.digests && rep != n.id)
		// Suspected replicas get a fallback reader immediately: under a
		// sloppy quorum the fallback may hold the only reachable copy
		// (a hinted write), and its response counts toward R.
		if n.cfg.Resilience != nil && n.suspects(rep, env.Now()) {
			n.askReadFallback(env, id, pr)
		}
	}
	pr.timer = env.SetTimer(n.cfg.Timeout, timeoutTag{id: id, write: false})
	if n.cfg.Resilience != nil {
		env.SetTimer(n.cfg.Resilience.RetryTimeout, rpcRetryTag{id: id, write: false})
	}
}

// askReadFallback queries the next unused fallback node for a pending
// read (no-op when fallbacks are exhausted or disabled).
func (n *Node) askReadFallback(env transport.Env, id uint64, pr *pendingRead) {
	if pr.fi >= len(pr.fallbacks) {
		return
	}
	fb := pr.fallbacks[pr.fi]
	pr.fi++
	n.ask(env, id, pr, fb, pr.digests)
}

// ask sends target the read's ask, a replicaDigest or a replicaGet in
// full, and records which ask now stands.
func (n *Node) ask(env transport.Env, id uint64, pr *pendingRead, target string, digest bool) {
	pr.asked[target] = digest
	if digest {
		env.Send(target, replicaDigest{ID: id, Key: pr.key})
	} else {
		env.Send(target, replicaGet{ID: id, Key: pr.key})
	}
}

// retryRead is one retransmission round for a pending read: re-ask every
// node that still owes an answer (a re-ask in full included), within the
// policy's attempt budget.
func (n *Node) retryRead(env transport.Env, id uint64) {
	pr, ok := n.reqShard(id).reads[id]
	if !ok || pr.done {
		return
	}
	pol := n.cfg.Resilience
	pr.attempt++
	if pr.attempt >= pol.MaxAttempts {
		if n.cfg.Counters != nil {
			n.cfg.Counters.Suppressed()
		}
		return
	}
	now := env.Now()
	for _, t := range sortedKeys(pr.asked) {
		if !pr.owes(t) {
			continue
		}
		n.ask(env, id, pr, t, pr.asked[t])
		if n.cfg.Counters != nil {
			n.cfg.Counters.Retry()
		}
		if slices.Contains(pr.replicas, t) && n.suspects(t, now) {
			n.askReadFallback(env, id, pr)
		}
	}
	env.SetTimer(pol.Backoff(pr.attempt, env.Rand()), rpcRetryTag{id: id, write: false})
}

// repairState is a completed read parked for background read repair: the
// replicas that had not answered when it returned, and the merged set to
// hold their late answers against. It lives until they have all answered
// or the read's own deadline passes, whichever is first: timer is the
// read's timeout, left armed, so a replica that never answers (down,
// partitioned, a dropped frame, a refusal) cannot strand the state.
type repairState struct {
	key     string
	merged  *clock.Siblings[record]
	waiting []string
	timer   transport.TimerID
}

// onNotReady takes a catching-up replica's refusal: it does not count
// toward R. Ask the next fallback — the old owners sit in the new ring's
// walk right after the replicas.
func (n *Node) onNotReady(env transport.Env, id uint64) {
	if pr, ok := n.reqShard(id).reads[id]; ok && !pr.done {
		n.askReadFallback(env, id, pr)
	}
}

// onAnswer takes a replica's answer to read id, in full or as a digest.
func (n *Node) onAnswer(env transport.Env, from string, id uint64, a readAnswer) {
	pr, ok := n.reqShard(id).reads[id]
	if !ok || pr.done {
		// Late response after the quorum returned: background repair.
		if rs, ok := n.reqShard(id).repairs[id]; ok {
			n.backgroundRepair(env, id, rs, from, a)
		}
		return
	}
	if have, ok := pr.responses[from]; ok && !have.digest && a.digest {
		return // a straggling digest does not displace the values already here
	}
	pr.responses[from] = a
	if len(pr.responses) < pr.needed {
		return
	}
	// R answers, and every dot that survives the merge of their clocks
	// has its value: the one condition a read completes on.
	merged, missing := pr.merge()
	if len(missing) == 0 {
		n.finishRead(env, id, pr, merged, "")
		return
	}
	// A digest names a surviving version nobody sent (this node's own
	// replica lags, or has not answered yet): ask its responder again, in
	// full, once. The answer replaces the digest and lands back here; if
	// it is lost, retryRead repeats the ask inside the read's deadline.
	for _, node := range missing {
		if pr.asked[node] {
			n.ask(env, id, pr, node, false)
		}
	}
}

// finishRead completes a read with merged, the fold of the answers that
// carried values (see pendingRead.merge).
func (n *Node) finishRead(env transport.Env, id uint64, pr *pendingRead, merged *clock.Siblings[record], errStr string) {
	pr.done = true
	sh := n.reqShard(id)
	delete(sh.reads, id)
	mergedEntries := merged.Entries()

	parked := false
	if n.cfg.ReadRepair && errStr == "" {
		n.readRepair(env, pr, mergedEntries)
		// Late responses from the replicas that did not make the quorum
		// drive background repair as they trickle in.
		var waiting []string
		for _, rep := range pr.replicas {
			if _, ok := pr.responses[rep]; !ok {
				waiting = append(waiting, rep)
			}
		}
		if len(waiting) > 0 {
			sh.repairs[id] = &repairState{key: pr.key, merged: merged, waiting: waiting, timer: pr.timer}
			parked = true
		}
	}
	if !parked {
		env.Cancel(pr.timer)
	}

	var values [][]byte
	for _, e := range mergedEntries {
		if !e.Value.Deleted {
			values = append(values, e.Value.Value)
		}
	}
	answer(env, pr.client, pr.reply, getResp{
		ID:       pr.id,
		Values:   values,
		Context:  merged.Context(),
		Err:      errStr,
		Replicas: len(pr.responses),
	})
}

// backgroundRepair handles a replica response arriving after the quorum
// returned: if the replica differs from the merged set, fold in what it
// sent and push the merged versions back to it. Only the replicas the
// read was still waiting for are heard, each once: a duplicate, a
// fallback's answer or the reply to a re-ask neither repairs anything
// nor ends the wait early. A late digest is compared by its dots and
// carries nothing to fold in: what is pushed always comes from answers
// that carried values.
func (n *Node) backgroundRepair(env transport.Env, id uint64, rs *repairState, from string, a readAnswer) {
	i := slices.Index(rs.waiting, from)
	if i < 0 {
		return
	}
	rs.waiting = slices.Delete(rs.waiting, i, i+1)
	if !a.names(rs.merged.Entries()) {
		for _, e := range a.entries {
			rs.merged.Add(e.DVV, e.Value)
		}
		for _, e := range rs.merged.Entries() {
			env.Send(from, replicaPut{Key: rs.key, Entry: e, Repair: true})
			atomic.AddUint64(&n.ReadRepairsSent, 1)
		}
	}
	if len(rs.waiting) == 0 {
		delete(n.reqShard(id).repairs, id)
		env.Cancel(rs.timer)
	}
}

// readRepair pushes the merged sibling set to every replica whose
// response differed from it (A1 ablation switch). A digest is compared
// like any answer, by its dots.
func (n *Node) readRepair(env transport.Env, pr *pendingRead, merged []clock.SiblingEntry[record]) {
	// Repair replicas in sorted order so the sends interleave
	// deterministically across runs.
	for _, rep := range sortedKeys(pr.responses) {
		// Fallback responders (resilience reads) are not replicas of the
		// key; pushing the merged set there would strand data on nodes
		// the read path never consults again.
		if !slices.Contains(pr.replicas, rep) {
			continue
		}
		if pr.responses[rep].names(merged) {
			continue
		}
		if rep == n.id {
			for _, e := range merged {
				n.installEntry(env.Domain(), pr.key, e)
			}
			continue
		}
		for _, e := range merged {
			env.Send(rep, replicaPut{Key: pr.key, Entry: e, Repair: true})
			atomic.AddUint64(&n.ReadRepairsSent, 1)
		}
	}
}

// readTimeout is the read's deadline. A read still pending fails with
// whatever the value-bearing answers so far merge to; a read that already
// returned gives up waiting for its late replicas (see repairState).
func (n *Node) readTimeout(env transport.Env, id uint64) {
	sh := n.reqShard(id)
	if pr, ok := sh.reads[id]; ok && !pr.done {
		merged, _ := pr.merge()
		n.finishRead(env, id, pr, merged, string(ErrQuorumTimeout))
		return
	}
	delete(sh.repairs, id)
}

// handoff opens a hint stream to every peer this node holds hints for and
// is not already shipping to. Hints are retained until the intended node
// acknowledges them, so delivery survives the target staying down.
func (n *Node) handoff(env transport.Env) {
	n.hintsMu.Lock()
	intendeds := sortedKeys(n.hints)
	n.hintsMu.Unlock()
	for _, intended := range intendeds {
		if n.streamTo(intended, streamHints, 0) == nil {
			n.openStream(env, intended, streamID{streamHints, n.mintStream()}, 0, n.hintSource(intended))
		}
	}
}

// hintSource ships the hints held for peer, in key order, for the keys
// that have one now; a key hinted later waits for the next stream.
func (n *Node) hintSource(peer string) source {
	n.hintsMu.Lock()
	keys := sortedKeys(n.hints[peer])
	n.hintsMu.Unlock()
	return source{
		next: shipKeys(keys, func(key string) []clock.SiblingEntry[record] {
			n.hintsMu.Lock()
			defer n.hintsMu.Unlock()
			// Copied: the store path appends to the queue from shard goroutines.
			return slices.Clone(n.hints[peer][key])
		}),
		// Drop exactly the versions that were shipped: a hint stored under
		// the same key while the batch was in flight stays queued. The
		// journal's hintAck means "nothing is queued for this key", so it is
		// written only when that is so.
		acked: func(env transport.Env, entries []aeEntry) {
			for _, e := range entries {
				dropped, left := n.dropHints(peer, e.Key, e.Entries)
				atomic.AddUint64(&n.HintsDelivered, uint64(dropped))
				if dropped > 0 && left == 0 {
					n.persistRecord(env.Domain(), walRecord{HintAck: &hintAckRec{Intended: peer, Key: e.Key}})
				}
			}
		},
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// LocalValues exposes the node's live local values for key — what this
// single replica believes — used by experiments to measure divergence
// without going through the read path.
func (n *Node) LocalValues(key string) [][]byte {
	var out [][]byte
	for _, e := range n.localEntries(key) {
		if !e.Value.Deleted {
			out = append(out, e.Value.Value)
		}
	}
	return out
}

// PendingHints returns how many hinted writes are queued here.
func (n *Node) PendingHints() int {
	n.hintsMu.Lock()
	defer n.hintsMu.Unlock()
	return n.pendingHintsLocked()
}

func (n *Node) pendingHintsLocked() int {
	c := 0
	for _, keys := range n.hints {
		for _, entries := range keys {
			c += len(entries)
		}
	}
	return c
}
