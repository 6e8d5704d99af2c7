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
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/geo"
	"repro/internal/resilience"
	"repro/internal/ring"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Config configures every node of a quorum store.
type Config struct {
	// Ring lists all storage nodes. Every node must use the same Ring. A
	// node without a Placement ring places keys by walking this member set
	// in sorted order, and takes its zones from the epochs it installs.
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
	// fallback for suspected replicas, and, where the transport does not
	// heartbeat its links itself (Env.Heartbeats: the simulator and
	// Loopback), a resPing to every ring peer each HeartbeatInterval to
	// feed the failure detector.
	Resilience *resilience.Policy
	// Directory is the shared phi-accrual failure detector, fed by the
	// simulator's delivery hook (every message, resPing and resPong
	// among them) or by the TCP transport (every frame read: its own
	// heartbeats and echoes, and the protocols' messages). Used only
	// when Resilience is set.
	Directory *resilience.Directory
	// Counters receives resilience event counts. May be nil.
	Counters *resilience.Counters
	// PersistAt, when set, journals every durable-state mutation (sibling
	// installs, hint stores/acks, transfer and geo progress) before any
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
	// Placement, when non-nil, is the ring of the node's boot epoch, and
	// the node places by the ring of whichever epoch it has installed
	// since (see Node.Install): a key's preference list is
	// Sequence(key)[:N] and its sloppy fallbacks the rest of the walk. It
	// also enables the elasticity paths: the membership protocol
	// (membership.go), the ownership guard on replica writes, dual-apply
	// to the previous epoch's owners while a transfer window is open, and
	// reads that walk past a catching-up replica (transfer.go).
	Placement *ring.Ring
	// OnPeers, when set, receives the peer link addresses the node's
	// epochs name (see Node.SetAddrs), on the serial loop, each time an
	// epoch changes them: the TCP host dials them. The simulator leaves it
	// nil.
	OnPeers func(addrs map[string]string)
	// TransferRate bounds outbound transfer streaming in bytes/sec
	// (default ~8MiB/s); TransferBatch bounds one batch of every stream
	// that ships versions to a peer (default 64KiB, see stream.go).
	TransferRate  int
	TransferBatch int
	// Zone names this node's zone; the installed epoch's ring names every
	// member's. Both inform geo-replication (see geo.go). Empty/absent
	// zones group together, so an unzoned cluster is a single zone.
	Zone string
	// GeoAsync acknowledges writes on an intra-zone sub-quorum
	// (min(W, in-zone replicas)) and replicates to other zones
	// asynchronously through the per-peer geo replicator.
	GeoAsync bool
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
	if c.N > 32 {
		return fmt.Errorf("quorum: N=%d exceeds 32, the most replicas a write tracks", c.N)
	}
	members := slices.Clone(c.Ring)
	slices.Sort(members)
	if m := len(slices.Compact(members)); c.N > m {
		return fmt.Errorf("quorum: N=%d exceeds the %d distinct members of Ring", c.N, m)
	}
	if c.Placement != nil && c.Placement.Size() < c.N {
		return fmt.Errorf("quorum: N=%d exceeds the Placement ring's %d members", c.N, c.Placement.Size())
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
	// Tier is the SLA tier a read of Node.CoordinateGet was served at,
	// and StaleMs the staleness measurement that decided it (see Plan).
	Tier    geo.Kind
	StaleMs int64
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
		// R, when > 0, is the read quorum the read's plan chose in place
		// of the configured R: 1 for an eventual read (see Plan).
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
	// and all; replicaDigest asks it for the dots only (see read.go).
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
	// nodes when resilience is enabled and the transport does not
	// heartbeat its links itself (the simulator). They carry nothing: the
	// arrival itself is the failure-detector evidence, and the pong gives
	// the pinger evidence about the pingee.
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

// Node is one storage node of the quorum store. It implements
// transport.Handler. All nodes are symmetric: a client may send a request to
// any node, which forwards it to a coordinator in the key's preference
// list.
type Node struct {
	cfg Config
	id  string

	// epoch is the installed membership epoch. Install stores a new one
	// on the serial loop, the one writer; an operation loads it once and
	// takes its placement, its dual-apply set, its ownership verdict and
	// its members' zones from that one value, on whatever goroutine it
	// runs.
	epoch atomic.Pointer[ring.Epoch]

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
	// (see stream.go), and lastStream the last stream id issued.
	// Serial-loop-confined.
	out        []*outStream
	lastStream uint64

	// aeTrees holds one Merkle tree per peer, covering exactly the keys
	// both nodes replicate (see antientropy.go). aeMu guards the map;
	// each tree is internally synchronized.
	aeMu    sync.Mutex
	aeTrees map[string]*storage.Merkle

	// Elasticity state. mb is the membership protocol's (membership.go).
	// inbound is the transfer window being pulled and xferDone the
	// journaled range completions per epoch, so a restart resumes instead
	// of re-pulling (transfer.go); all three are serial-loop-confined. The
	// read path sees the window through its published gate.
	mb       membership
	inbound  *catchUp
	xferDone map[uint64]map[int]bool
	gate     atomic.Pointer[gate]
	draining atomic.Bool
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
	// ReadHedges counts the nodes reads asked because an answer was late
	// (see pendingRead.tick).
	ReadHedges atomic.Uint64
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
		shards[i] = newNodeShard(engineFor(i), newRequests(requestTimeout, transport.Sender{
			Self: id, Policy: cfg.Resilience, Counters: cfg.Counters, Directory: cfg.Directory}))
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
	boot := ring.Epoch{Ring: cfg.Placement}
	if boot.Ring == nil {
		// The ring of a node that places by member list holds its members
		// and their zones; one point each is all it needs.
		boot.Ring = ring.New(cfg.Ring, 1)
	}
	n.epoch.Store(&boot)
	return n
}

// Epoch returns the installed membership epoch (see Install).
func (n *Node) Epoch() ring.Epoch { return *n.epoch.Load() }

// PreferenceList returns the N replicas for key, in priority order. The
// list may be the ring's shared walk and must not be written.
func (n *Node) PreferenceList(key string) []string {
	prefs, _ := n.cfg.placement(n.epoch.Load(), key)
	return prefs
}

// placement returns key's N replicas under ep in priority order and,
// after them, the rest of the walk — the fallbacks of a sloppy quorum —
// both cut from one walk that ep's ring shares: its Sequence under a
// Placement ring, else the rotation of its sorted members that starts at
// the member the key's fnv64a hash picks. It allocates nothing.
func (c *Config) placement(ep *ring.Epoch, key string) (prefs, fallbacks []string) {
	var seq []string
	if c.Placement != nil {
		seq = ep.Ring.Sequence(key)
	} else {
		h := uint64(14695981039346656037) // fnv64a, inlined so that it allocates nothing
		for i := 0; i < len(key); i++ {
			h ^= uint64(key[i])
			h *= 1099511628211
		}
		seq = ep.Ring.Rotation(int(h % uint64(ep.Ring.Size())))
	}
	return seq[:c.N:c.N], seq[c.N:]
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
	if n.cfg.Resilience != nil && !env.Heartbeats() {
		// Jittered so heartbeats do not fire in lockstep across the ring.
		hi := n.cfg.Resilience.HeartbeatInterval
		env.SetTimer(hi/2+time.Duration(env.Rand().Int63n(int64(hi))), pingTag{})
	}
	if n.cfg.GeoAsync {
		env.SetTimer(geoFlushInterval, geoFlushTag{})
		env.SetTimer(geoBeaconInterval/2+time.Duration(env.Rand().Int63n(int64(geoBeaconInterval))), geoBeaconTag{})
	}
	if n.cfg.Placement != nil {
		n.memberTick(env)
	}
	// A node the simulator crashed and restarted kept its streams and its
	// inbound window, and lost their timers.
	for _, st := range n.out {
		n.transmit(env, st)
	}
	if cu := n.inbound; cu != nil {
		n.openTransfers(env, cu)
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
			n.onWrite(env, tg.id, writeEvent{kind: wrDeadline})
		} else {
			n.onRead(env, tg.id, readEvent{kind: evDeadline})
		}
	case pingTag:
		for _, peer := range n.members() {
			if peer != n.id {
				env.Send(peer, resPing{})
			}
		}
		env.SetTimer(n.cfg.Resilience.HeartbeatInterval, pingTag{})
	case rpcRetryTag:
		if tg.write {
			n.onWrite(env, tg.id, writeEvent{kind: wrTick})
		} else {
			n.onRead(env, tg.id, readEvent{kind: evTick})
		}
	case xferRetryTag:
		if cu := n.inbound; cu != nil && cu.seq == tg.seq && !cu.ranges[tg.idx].done {
			n.openTransfer(env, cu, tg.idx) // the range's stream has stalled: re-open it at its cursor
		}
	case *outStream:
		if slices.Contains(n.out, tg) {
			if tg.id.Kind == streamGeo {
				atomic.AddUint64(&n.GeoResends, 1)
			}
			n.transmit(env, tg)
		}
	case deadlineTag:
		n.reqShard(tg.id).out.settle(env, tg.id, "", nil)
	case transport.RetryTag:
		n.forwarder(tg.ID).Retry(env, tg.ID) // a spent budget waits for the deadline
	case drainTag:
		n.drainTick(env)
	case geoFlushTag:
		n.geoFlush(env)
	case geoBeaconTag:
		n.geoBeacon(env)
	case memberTag:
		n.memberTick(env)
	}
}

// OnMessage implements transport.Handler.
func (n *Node) OnMessage(env transport.Env, from string, msg transport.Message) {
	switch m := msg.(type) {
	case clientPut:
		n.coordinatePut(env, from, m, nil)
	case clientGet:
		n.coordinateGet(env, from, m, nil, Plan{})
	case putResp:
		n.reqShard(m.ID).out.settle(env, m.ID, from, m)
	case getResp:
		n.reqShard(m.ID).out.settle(env, m.ID, from, m)
	case replicaPut:
		n.applyReplicaPut(env, from, m)
	case replicaPutAck:
		n.onWrite(env, m.ID, writeEvent{kind: wrAck, from: from})
	case replicaGet:
		n.answerReplicaGet(env, from, m)
	case replicaDigest:
		n.answerDigest(env, from, m)
	case replicaGetResp:
		n.onRead(env, m.ID, readEvent{kind: evAnswer, from: from, answer: readAnswer{entries: m.Entries}})
	case replicaDigestResp:
		n.onRead(env, m.ID, readEvent{kind: evAnswer, from: from, answer: readAnswer{dots: m.Dots, digest: true}})
	case replicaNotReady:
		n.onRead(env, m.ID, readEvent{kind: evRefusal, from: from})
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
		n.onNotOwner(env, from, m)
	case ringUpdate:
		n.onRingUpdate(env, from, m)
	case ringAck:
		n.onRingAck(env, from, m)
	case beginTransfer:
		n.onBeginTransfer(env, m)
	case transferComplete:
		n.onTransferComplete(env, from, m)
	case epochSettled:
		n.settle(m.Seq)
	case ringPull:
		n.onRingPull(env, from)
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

// coordinatePut starts the write protocol (write.go) at whichever node the
// client contacted (Cassandra-style coordination): mint a new version,
// send it to the key's replicas, and acknowledge the client after W
// replica acks. When the coordinator is one of the synchronous replicas
// it does not message itself: it installs the version in place and counts
// its own ack, so a write that needs W-1 peers waits for exactly those.
// The install journals the version in this invocation, so a host that
// holds acks behind the journal (the server's ack barrier) holds the
// answer behind it too, whether it leaves now or with a later peer ack.
// The acknowledgement is a putResp to client, or a call of reply for a
// client in this process (see answerPut).
func (n *Node) coordinatePut(env transport.Env, client string, m clientPut, reply func(transport.Env, PutResult)) {
	if m.ID == 0 {
		// Every write is named by its sender: a request without an id has
		// no dot.
		answerPut(env, client, reply, m.Key, putResp{Err: "quorum: put without a request id"})
		return
	}
	// Mint the new version: the context is exactly what the client
	// causally observed (a blind write must sibling with, not supersede,
	// versions it never read); the dot, (client, request id), names the
	// write itself, not the coordination attempt — a retried request, even
	// through a different coordinator, mints the identical dot and
	// Siblings.Add applies it at most once. The request id is unique and
	// increasing per client, so the dot always clears the client's own
	// entry in the echoed context; clientDot guards against a malformed
	// context anyway. The context is kept as it came: decoded from the
	// request's frame, or handed over by a sender in this process, which
	// never writes into a context once sent.
	dvv := clock.DVV{Dot: clientDot(client, m.ID, m.Context), Context: m.Context}
	shardIdx := n.router.Shard(m.Key)
	id := n.mintReq(shardIdx)
	n.shards[shardIdx].writes[id] = &pendingWrite{client: client, reply: reply, id: m.ID, key: m.Key,
		entry: clock.SiblingEntry[record]{DVV: dvv, Value: record{Value: m.Value, Deleted: m.Deleted}},
		cfg:   &n.cfg, ep: n.epoch.Load()}
	n.onWrite(env, id, writeEvent{kind: wrStart, from: n.id})
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

// onWrite feeds ev to write id and carries out the steps that follow.
func (n *Node) onWrite(env transport.Env, id uint64, ev writeEvent) {
	sh := n.reqShard(id)
	pw := sh.writes[id]
	if pw == nil {
		return
	}
	switch ev.kind { // the timer has fired: nothing to cancel
	case wrDeadline:
		pw.timer = 0
	case wrTick:
		pw.retryTimer = 0
	}
	// The buffer is taken from the shard while its steps are carried out:
	// a reply that starts another write on this shard steps into its own.
	ev.now, ev.sus, ev.steps, sh.writeSteps = env.Now(), n, sh.writeSteps, nil
	steps := pw.step(ev)
	var put transport.Message // boxed once for every replica
	for _, s := range steps {
		switch s.kind {
		case wstepGeo:
			n.geoEnqueue(s.to, pw.key, pw.entry)
		case wstepSend:
			if put == nil {
				put = replicaPut{ID: id, Key: pw.key, Entry: pw.entry}
			}
			env.Send(s.to, put)
			if s.retry {
				n.cfg.Counters.Retry() // Counters are nil-safe
			}
		case wstepHint:
			env.Send(s.to, replicaPut{ID: id, Key: pw.key, Entry: pw.entry, Hint: s.hint})
		case wstepDual:
			env.Send(s.to, replicaPut{Key: pw.key, Entry: pw.entry, Repair: true})
		case wstepInstall, wstepDualInstall:
			// applyReplicaPut's ownership guard holds by construction: this
			// node is in the key's preference list, or the previous one's.
			n.installEntry(env.Domain(), pw.key, pw.entry)
		case wstepDeadline:
			pw.timer = env.SetTimer(n.cfg.Timeout, timeoutTag{id: id, write: true})
		case wstepTick:
			d := n.cfg.Resilience.RetryTimeout
			if s.retry {
				d = n.cfg.Resilience.Backoff(int(pw.attempt), env.Rand())
			}
			pw.retryTimer = env.SetTimer(d, rpcRetryTag{id: id, write: true})
		case wstepSuppressed:
			n.cfg.Counters.Suppressed()
		case wstepForget:
			delete(sh.writes, id)
			env.Cancel(pw.timer)
			env.Cancel(pw.retryTimer)
		case wstepAnswer:
			// The answer's context covers the write, failed or not: the client
			// that echoes it supersedes the write whether it was applied or not.
			r := putResp{ID: pw.id, Context: pw.entry.DVV.Join(clock.DVV{}), Sloppy: pw.sloppy}
			if s.failed {
				r.Err = string(ErrQuorumTimeout)
			}
			answerPut(env, pw.client, pw.reply, pw.key, r)
		}
	}
	sh.writeSteps = steps[:0]
}

func (n *Node) applyReplicaPut(env transport.Env, from string, m replicaPut) {
	// Ownership guard: a direct replica write for a key outside this
	// node's current arcs (and outside any open dual-apply window) means
	// the coordinator placed it with a stale ring. Refuse with our epoch
	// instead of silently absorbing a write the read path will never
	// find here. Hinted stand-ins and repair/dual-apply pushes are
	// exempt — they are intentionally addressed off the preference list.
	if n.cfg.Placement != nil && m.Hint == "" && !m.Repair {
		if ep := n.epoch.Load(); !n.ownsKey(ep, m.Key) {
			env.Send(from, replicaNotOwner{ID: m.ID, Seq: ep.Seq})
			return
		}
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

// answerPut delivers a coordinator's answer r to its client: a message to
// the client's address, or, when the client is in this process and handed
// the coordinator reply (Node.CoordinatePut), a call of reply with the Env
// of the invocation the operation completed in. A host that holds a
// message back until the invocation's records are durable (the server's
// ack barrier) holds the call's answer the same way through that Env.
func answerPut(env transport.Env, client string, reply func(transport.Env, PutResult), key string, r putResp) {
	if reply == nil {
		env.Send(client, r)
		return
	}
	reply(env, putResult(key, r))
}

// coordinateGet starts the read protocol (read.go) at whichever node the
// client contacted. Its own replica, when it is one, answers through the
// message path like any other. The answer goes to the client as
// coordinatePut's does, with p's tier and staleness.
func (n *Node) coordinateGet(env transport.Env, client string, m clientGet, reply func(transport.Env, GetResult), p Plan) {
	shardIdx := n.router.Shard(m.Key)
	sh := n.shards[shardIdx]
	id := n.mintReq(shardIdx)
	needed := n.cfg.R
	if m.R > 0 {
		// The read quorum the plan chose (see Plan), capped at the
		// preference-list size so the read can always complete.
		needed = min(m.R, n.cfg.N)
	}
	var hedge time.Duration
	if n.cfg.Resilience != nil {
		hedge = sh.rtt.HedgeDelay(n.cfg.Resilience)
	}
	pr := newPendingRead(&n.cfg, n.epoch.Load(), n.id, m.Key, needed, hedge)
	pr.client, pr.reply, pr.id, pr.tier, pr.staleMs = client, reply, m.ID, p.Tier, p.StaleMs
	sh.reads[id] = pr
	n.onRead(env, id, readEvent{kind: evStart})
}

// onRead feeds ev to read id, in flight or parked, and carries out the
// steps that follow.
func (n *Node) onRead(env transport.Env, id uint64, ev readEvent) {
	sh := n.reqShard(id)
	pr := cmp.Or(sh.reads[id], sh.repairs[id])
	if pr == nil {
		return
	}
	switch ev.kind { // the timer has fired: nothing to cancel
	case evDeadline:
		pr.timer = 0
	case evTick:
		pr.retryTimer = 0
	}
	// The buffer is taken from the shard while its steps are carried out:
	// a reply that starts another read on this shard steps into its own.
	ev.now, ev.sus, ev.steps, sh.readSteps = env.Now(), n, sh.readSteps, nil
	steps := pr.step(ev)
	for _, s := range steps {
		switch s.kind {
		case stepAsk:
			if s.digest {
				env.Send(s.target, replicaDigest{ID: id, Key: pr.key})
			} else {
				env.Send(s.target, replicaGet{ID: id, Key: pr.key})
			}
			if s.hedge {
				n.ReadHedges.Add(1)
				n.cfg.Counters.Hedge() // Counters are nil-safe
			} else if s.retry {
				n.cfg.Counters.Retry()
			}
		case stepObserve:
			sh.rtt.Observe(s.delay)
		case stepDeadline:
			pr.timer = env.SetTimer(n.cfg.Timeout, timeoutTag{id: id, write: false})
		case stepTick:
			if s.retry {
				s.delay = n.cfg.Resilience.Backoff(int(pr.attempt), env.Rand())
			}
			pr.retryTimer = env.SetTimer(s.delay, rpcRetryTag{id: id, write: false})
		case stepSuppressed:
			n.cfg.Counters.Suppressed()
		case stepRepair:
			for _, e := range pr.merged {
				if s.target == n.id {
					n.installEntry(env.Domain(), pr.key, e)
					continue
				}
				env.Send(s.target, replicaPut{Key: pr.key, Entry: e, Repair: true})
				atomic.AddUint64(&n.ReadRepairsSent, 1)
			}
		case stepPark:
			delete(sh.reads, id)
			sh.repairs[id] = pr
		case stepForget:
			delete(sh.reads, id)
			delete(sh.repairs, id)
			env.Cancel(pr.timer)
			env.Cancel(pr.retryTimer)
		case stepAnswer:
			r := getResp{ID: pr.id, Context: pr.merged.context(), Replicas: pr.answered.len()}
			for _, e := range pr.merged {
				if !e.Value.Deleted {
					r.Values = append(r.Values, e.Value.Value)
				}
			}
			if s.failed {
				r.Err = string(ErrQuorumTimeout)
			}
			if pr.reply == nil {
				env.Send(pr.client, r)
				continue
			}
			pr.reply(env, getResult(pr.key, r, pr.tier, pr.staleMs)) // see answerPut
		}
	}
	sh.readSteps = steps[:0]
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
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
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
