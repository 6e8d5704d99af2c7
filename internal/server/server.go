package server

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/gossip"
	"repro/internal/lsm"
	"repro/internal/metrics"
	"repro/internal/quorum"
	"repro/internal/resilience"
	"repro/internal/ring"
	"repro/internal/session"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Config configures one node daemon.
type Config struct {
	// ID is this node's name; it must appear in Peers.
	ID string
	// Model selects the consistency model: "gossip", "quorum", or
	// "session".
	Model string
	// Peers maps every node id (including this one) to its peer-link
	// listen address. All nodes must agree on this map.
	Peers map[string]string
	// ListenPeer is this node's peer-link listen address (normally
	// Peers[ID]; separate so tests can bind ":0").
	ListenPeer string
	// ListenHTTP is the metrics/health listen address ("" disables).
	ListenHTTP string
	// N/R/W are the quorum parameters (quorum model; default 3/2/2
	// capped at the cluster size).
	N, R, W int
	// Policy tunes resilience; nil uses defaults.
	Policy *resilience.Policy
	// Seed derives all node randomness.
	Seed int64
	// Logf receives diagnostics (nil discards).
	Logf func(format string, args ...any)
	// DataDir, when non-empty, enables durable persistence: every
	// protocol state mutation is journaled to a write-ahead log under
	// this directory, recovered (checkpoint + log replay) before the
	// node joins the ring, and checkpointed in the background. A node
	// restarted from its DataDir holds every write it acknowledged.
	DataDir string
	// Fsync is the WAL fsync policy (default wal.SyncEach: fsync before
	// every ack). Only meaningful with DataDir set.
	Fsync wal.SyncPolicy
	// CheckpointInterval paces background snapshots that bound WAL
	// growth (default 5s; negative disables checkpointing).
	CheckpointInterval time.Duration
	// Joining marks this node as a live joiner (quorum model only): it
	// boots owning nothing — the placement ring excludes it — and stays
	// in the "catching-up" state until the cluster installs its join
	// epoch and streams its arcs over (see `ecctl add-node`). Peers must
	// still include this node's own id/address.
	Joining bool
	// TransferRate caps elasticity arc streaming at this many bytes per
	// second per source node (0 = protocol default). Quorum model only.
	TransferRate int
	// TransferBatch bounds the entries of one batch shipped to a peer, by
	// transfer, handoff, anti-entropy or geo replication, in bytes (0 =
	// protocol default). Quorum model only.
	TransferBatch int
	// Shards splits the quorum node's replica state into this many
	// key-range execution shards, each drained by its own shard loop
	// beside the node's serial loop, so requests for disjoint key ranges
	// execute on separate cores (the protocol rounds the count up to a
	// power of two). 0 defaults to GOMAXPROCS; 1 is one shard loop.
	// Quorum model only.
	Shards int
	// Engine selects the storage engine backing replica state: "mem"
	// (default) keeps it in memory, "lsm" puts each shard on a
	// disk-resident log-structured merge tree under DataDir/lsm/.
	// "lsm" requires the quorum model and a DataDir (the WAL is the
	// engine's redo log: the LSM keeps no log of its own, so a crash
	// loses only its memtable, which replay re-installs).
	Engine string
	// Zone names this node's zone ("" = unzoned). With Zones set, ring
	// placement spreads each key's replicas across zones and the SLA
	// read tiers route by zone.
	Zone string
	// Zones maps node ids to zone names; all nodes must agree on it
	// (like Peers). Nodes absent from the map share the unnamed zone.
	Zones map[string]string
	// GeoAsync acks quorum writes on the intra-zone sub-quorum and
	// streams the cross-zone remainder through the async per-zone
	// replicator (WAL-journaled, resumable). Quorum model only.
	GeoAsync bool
	// XZoneDelay injects this artificial delay before every frame sent
	// to a peer in a different zone — cross-zone RTT emulation for
	// single-host multi-zone clusters. 0 disables.
	XZoneDelay time.Duration
}

// Server is one running node: a TCP transport hosting the model's
// protocol node, a client-protocol gateway, and the HTTP sidecar.
type Server struct {
	cfg    Config
	tcp    *transport.TCP
	ring   *ring.Ring
	dir    *resilience.Directory
	policy *resilience.Policy

	gwQuorum   []*quorum.Client // quorum model: gateway clients (one per shard; see clientConn.start)
	gwIDs      []string
	lsmEngines []*lsm.Engine // Engine "lsm": per-shard trees, for metrics and close
	gossipN    *gossip.Node  // gossip model: ops run on the storage actor itself
	qnode      *quorum.Node  // quorum model: the storage actor's protocol node
	qN         int           // quorum model: replication factor
	el         *elastic      // quorum model: live membership state
	dur        *durability   // nil unless Config.DataDir set
	ackB       *ackBarrier   // nil unless durable: holds acks until fsync
	httpLn     net.Listener
	statMu     sync.Mutex // guards reqCount and reqLat
	reqCount   *metrics.Counters
	reqLat     *metrics.Histogram
	connMu     sync.Mutex // guards connSeq and conns
	connSeq    uint64
	conns      map[*clientConn]struct{} // client connections being served
	closeOnce  sync.Once

	// incarnation counts the boots from DataDir before this one (0
	// without a DataDir); see incarnationShift.
	incarnation uint64

	// booted is set just before ready closes iff New succeeded; the
	// channel close orders the write for the parked handlers.
	booted bool
	// ready closes when New finishes booting. The transport's listener
	// accepts client connections from the moment it binds, but the
	// gateways (and, on a durable node, WAL recovery) come later in New
	// — a request dispatched in that window would hit a half-built
	// server. Connection handlers park here until boot completes; on a
	// restart with a large WAL that means the first client blocks for
	// the replay instead of racing it.
	ready chan struct{}
}

// incarnationShift places a boot's incarnation above every request id
// a gateway's quorum.Client, and every connection number the session
// model, can issue in one boot (2^40: four months at 100,000 a second).
// Both name writes: a quorum dot is (gateway, request id), and a session
// server applies a client's request at most once. An identity minted
// after a restart therefore never repeats one minted before it, and a
// first boot mints exactly what it did before incarnations existed.
const incarnationShift = 40

// requestTimeout bounds how long an admin operation waits for the
// storage node's loop and the cluster before answering with an error.
const requestTimeout = 6 * time.Second

func (c Config) validate() error {
	if c.ID == "" {
		return errors.New("server: Config.ID required")
	}
	if _, ok := c.Peers[c.ID]; !ok {
		return fmt.Errorf("server: Config.Peers must contain own id %q", c.ID)
	}
	if c.Joining && c.Model != "quorum" {
		return fmt.Errorf("server: Joining requires the quorum model, not %q", c.Model)
	}
	if c.Joining && len(c.Peers) < 2 {
		return errors.New("server: a joining node needs at least one existing peer")
	}
	if c.GeoAsync && c.Model != "quorum" {
		return fmt.Errorf("server: GeoAsync requires the quorum model, not %q", c.Model)
	}
	switch c.Engine {
	case "", "mem":
	case "lsm":
		if c.Model != "quorum" {
			return fmt.Errorf("server: Engine \"lsm\" requires the quorum model, not %q", c.Model)
		}
		if c.DataDir == "" {
			return errors.New("server: Engine \"lsm\" requires a DataDir (the WAL is its redo log)")
		}
	default:
		return fmt.Errorf("server: unknown engine %q (want mem or lsm)", c.Engine)
	}
	switch c.Model {
	case "gossip", "quorum", "session":
		return nil
	}
	return fmt.Errorf("server: unknown model %q (want gossip, quorum, or session)", c.Model)
}

// New starts a node: binds the transport, boots the protocol node and
// gateway, and serves HTTP if configured.
func New(cfg Config) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.ListenPeer == "" {
		cfg.ListenPeer = cfg.Peers[cfg.ID]
	}
	policy := cfg.Policy.Normalized()

	members := make([]string, 0, len(cfg.Peers))
	for id := range cfg.Peers {
		members = append(members, id)
	}
	sort.Strings(members)

	// A joiner owns nothing at boot: its placement ring is the cluster
	// WITHOUT itself until the join epoch arrives and its arcs stream in.
	ringMembers := members
	if cfg.Joining {
		ringMembers = make([]string, 0, len(members)-1)
		for _, m := range members {
			if m != cfg.ID {
				ringMembers = append(ringMembers, m)
			}
		}
	}

	s := &Server{
		cfg:      cfg,
		ready:    make(chan struct{}),
		ring:     ring.NewZoned(ringMembers, ring.DefaultVirtualNodes, cfg.Zones),
		dir:      resilience.NewDirectory(policy),
		policy:   policy,
		reqCount: metrics.NewCounters(),
		reqLat:   metrics.NewHistogram(),
		conns:    make(map[*clientConn]struct{}),
	}
	// Wake parked connection handlers however New exits — they check
	// booted and drop the connection if boot failed.
	defer close(s.ready)

	var linkDelay func(string) time.Duration
	if cfg.XZoneDelay > 0 && len(cfg.Zones) > 0 {
		own, d, zones := cfg.Zone, cfg.XZoneDelay, cfg.Zones
		linkDelay = func(peer string) time.Duration {
			if zones[peer] != own {
				return d
			}
			return 0
		}
	}
	tcp, err := transport.NewTCP(transport.TCPConfig{
		LocalID:   cfg.ID,
		Listen:    cfg.ListenPeer,
		Peers:     cfg.Peers,
		Policy:    policy,
		Directory: s.dir,
		Seed:      cfg.Seed,
		Logf:      cfg.Logf,
		LinkDelay: linkDelay,
		OnClientConn: func(link transport.Link, conn net.Conn) {
			go func() {
				<-s.ready
				if !s.booted {
					conn.Close()
					return
				}
				s.serveClient(link, conn)
			}()
		},
	})
	if err != nil {
		return nil, err
	}
	s.tcp = tcp

	others := make([]string, 0, len(members)-1)
	for _, m := range members {
		if m != cfg.ID {
			others = append(others, m)
		}
	}

	// With a DataDir the node journals through a WAL; the Persist hook
	// is handed to the protocol config and runs on the storage actor's
	// loop before acks, so wal.SyncEach means durable-before-ack.
	var persist func(rec []byte)
	if cfg.DataDir != "" {
		d, err := openDurability(cfg.DataDir, cfg.Fsync, cfg.Logf)
		if err != nil {
			tcp.Close()
			return nil, fmt.Errorf("server %s: %w", cfg.ID, err)
		}
		s.dur = d
		persist = d.persist
	}

	var node durableNode // the storage actor, before it joins the ring
	var handler transport.Handler
	switch cfg.Model {
	case "gossip":
		// With Fanout 1 a fresh write travels one chain of TTL+1
		// rumors. len(others) of them can reach every peer; one more
		// only lands on a node that holds the write already and refuses
		// it (with three nodes, the one that minted it). Anti-entropy
		// repairs a chain that revisits a node and stops short.
		ttl := max(1, len(others)-1)
		s.gossipN = gossip.NewNode(cfg.ID, gossip.Config{Peers: others, RumorTTL: ttl, Persist: persist},
			func() int64 { return time.Now().UnixNano() })
		node, handler = s.gossipN, s.gossipN
	case "quorum":
		n, r, w := quorumParams(cfg, len(ringMembers))
		s.qN = n
		mode := stateOK
		if cfg.Joining {
			mode = stateCatchingUp
		}
		addrs := make(map[string]string, len(cfg.Peers))
		for id, a := range cfg.Peers {
			addrs[id] = a
		}
		zones := make(map[string]string, len(cfg.Zones))
		for id, z := range cfg.Zones {
			zones[id] = z
		}
		s.el = &elastic{
			cur:   s.ring,
			mode:  mode,
			addrs: addrs,
			zones: zones,
		}
		shards := cfg.Shards
		if shards == 0 {
			shards = runtime.GOMAXPROCS(0)
		}
		if shards < 1 {
			shards = 1
		}
		qcfg := quorum.Config{
			Ring:          ringMembers,
			N:             n,
			R:             r,
			W:             w,
			ReadRepair:    true,
			SloppyQuorum:  true,
			AntiEntropy:   true,
			Resilience:    policy,
			Directory:     s.dir,
			Placement:     livePlacement{s},
			Elastic:       serverElastic{s},
			OnStaleRing:   s.onStaleRing,
			TransferRate:  cfg.TransferRate,
			TransferBatch: cfg.TransferBatch,
			Shards:        shards,
			Zone:          cfg.Zone,
			Zones:         cfg.Zones,
			GeoAsync:      cfg.GeoAsync,
		}
		if s.dur != nil {
			// The sharded persist hook: each execution domain's records
			// land in that domain's pending table, so every domain's ack
			// barrier gates on exactly its own appends.
			qcfg.PersistAt = s.dur.persistAt
		}
		if cfg.Engine == "lsm" {
			// One LSM tree per replica shard under DataDir/lsm/, opened
			// up front so a bad directory fails New instead of panicking
			// inside the protocol constructor. Async background
			// compaction: the real server has no determinism constraint,
			// and merges should not stall the shard's write path.
			// Flushed state survives restarts; the unflushed memtable is
			// re-installed by WAL replay below.
			nShards := storage.NewShardRouter(shards).Shards()
			for i := 0; i < nShards; i++ {
				e, err := lsm.Open(lsm.Options{
					Dir:   filepath.Join(cfg.DataDir, "lsm", fmt.Sprintf("shard-%d", i)),
					Async: true,
					Logf:  cfg.Logf,
				})
				if err != nil {
					for _, open := range s.lsmEngines {
						open.Close()
					}
					if s.dur != nil {
						s.dur.Close()
					}
					tcp.Close()
					return nil, fmt.Errorf("server %s: open lsm shard %d: %w", cfg.ID, i, err)
				}
				s.lsmEngines = append(s.lsmEngines, e)
			}
			qcfg.Storage = func(shard int) storage.Engine { return s.lsmEngines[shard] }
		}
		qn := quorum.NewNode(cfg.ID, qcfg)
		s.qnode = qn
		node, handler = qn, qn
	case "session":
		sn := session.NewServer(cfg.ID, session.ServerConfig{Peers: others, Persist: persist})
		node, handler = sn, sn
	}

	// The storage actor's execution domains: the serial loop, plus a
	// quorum node's shard loops.
	domains, route := 1, (func(rec []byte) int)(nil)
	if qn := s.qnode; qn != nil {
		domains, route = 1+qn.Shards(), qn.ReplayDomain
	}

	// Recover from disk BEFORE the actor boots: a quorum node replays in
	// parallel — each key's records on the owning shard's lane,
	// cross-cutting records on the serial lane — and the node rejoins the
	// ring already holding every write it ever acknowledged.
	if s.dur != nil {
		s.dur.setDomains(domains)
		var err error
		if s.qnode != nil {
			// A disk-resident engine already holds state: refuse one an
			// older version wrote before replay adds to it.
			err = s.qnode.CheckStoredFormat()
		}
		if err == nil {
			err = s.dur.recover(node, route)
		}
		if err == nil {
			s.incarnation, err = bootIncarnation(cfg.DataDir)
		}
		if err != nil {
			s.dur.Close()
			tcp.Close()
			if s.qnode != nil {
				s.qnode.Close()
			}
			return nil, fmt.Errorf("server %s: recovery from %s: %w", cfg.ID, cfg.DataDir, err)
		}
	}
	s.connSeq = s.incarnation << incarnationShift // session connection ids

	// Membership traffic shares the storage actor's loop (and, below,
	// its durability ack barrier): epoch installs serialize with the
	// protocol work they re-route.
	if s.el != nil {
		handler = &elasticHandler{s: s, inner: handler}
	}
	// A durable node's acks wait for the WAL, not the WAL for the node:
	// the barrier defers the storage actor's outgoing messages until
	// their records' group commit lands, so the loop keeps appending
	// while the disk works.
	if s.dur != nil {
		s.ackB = newAckBarrier(handler, s.dur, func(to string, msg transport.Message) {
			tcp.Post(cfg.ID, to, msg)
		})
		handler = s.ackB
	}
	// The wrappers above leave the quorum node's sharding to be declared
	// here, once: invocations reach the wrapped handler on the node's
	// domains, and the read fast path reaches the node directly.
	if s.qnode != nil {
		handler = transport.WithSharding(handler, s.qnode)
	}
	tcp.AddNode(cfg.ID, handler)
	if cfg.Model == "quorum" {
		// One gateway quorum client per shard, keyed the same way as the
		// replica shards, names the writes this node's clients make and
		// keeps their contexts. An operation this node coordinates runs on
		// the key's shard loop (clientConn.start); one it forwards runs on the
		// gateway's own actor loop, so forwarding fans across cores too
		// instead of serializing on a single gateway loop.
		ng := s.qnode.Shards()
		s.gwIDs = make([]string, ng)
		s.gwQuorum = make([]*quorum.Client, ng)
		for i := range s.gwIDs {
			id := fmt.Sprintf("%s#gw%d", cfg.ID, i)
			c := quorum.NewClient(id)
			c.StartIDsAt(s.incarnation << incarnationShift)
			c.Nodes = ringMembers
			c.Policy = policy
			c.Directory = s.dir
			s.gwIDs[i], s.gwQuorum[i] = id, c
			tcp.AddNode(id, c)
		}
	}
	if s.dur != nil && cfg.CheckpointInterval >= 0 {
		interval := cfg.CheckpointInterval
		if interval == 0 {
			interval = 5 * time.Second
		}
		// Capture (state, WAL seq) on the storage actor's loop. The seq
		// is read BEFORE the snapshot: a record journaled by seq-read
		// time had its mutation applied first (same goroutine), so the
		// snapshot — which locks each shard after that — contains every
		// mutation the covered prefix holds. Shard goroutines may append
		// past seq while the capture runs; those mutations land in the
		// snapshot early, and their records survive truncation and
		// re-apply idempotently. The snapshot write itself runs off-loop.
		s.dur.startCheckpointer(interval, func() ([]byte, uint64, bool) {
			var state []byte
			var seq uint64
			captured := make(chan struct{})
			if !s.tcp.Invoke(cfg.ID, func(transport.Env) {
				seq = s.dur.log.LastSeq()
				state = node.StateSnapshot()
				close(captured)
			}) {
				return nil, 0, false
			}
			<-captured
			return state, seq, true
		})
	}

	if cfg.ListenHTTP != "" {
		if err := s.startHTTP(cfg.ListenHTTP); err != nil {
			tcp.Close()
			return nil, err
		}
	}
	s.booted = true
	return s, nil
}

func quorumParams(cfg Config, size int) (n, r, w int) {
	n, r, w = cfg.N, cfg.R, cfg.W
	if n <= 0 {
		n = 3
	}
	if n > size {
		n = size
	}
	if r <= 0 {
		r = (n + 1) / 2
	}
	if w <= 0 {
		w = n/2 + 1
	}
	if r > n {
		r = n
	}
	if w > n {
		w = n
	}
	return
}

// Addr returns the bound peer-link address.
func (s *Server) Addr() string { return s.tcp.Addr() }

// HTTPAddr returns the bound HTTP address ("" if disabled).
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// ID returns the node id.
func (s *Server) ID() string { return s.cfg.ID }

// Ring returns the current placement ring (immutable; a new ring is
// swapped in when a membership epoch installs).
func (s *Server) Ring() *ring.Ring { return s.curRing() }

// curRing returns the ring of the node's current membership epoch (the
// boot ring for models without elasticity).
func (s *Server) curRing() *ring.Ring {
	if s.el == nil {
		return s.ring
	}
	s.el.mu.Lock()
	defer s.el.mu.Unlock()
	return s.el.cur
}

// Close shuts the node down.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.httpLn != nil {
			s.httpLn.Close()
		}
		s.tcp.Close()
		if s.ackB != nil {
			// Actors are stopped, so the release queue only drains: every
			// parked ack waits out its commit (the WAL is still open) and
			// posts into the closed transport, which discards it.
			s.ackB.Close()
		}
		// No client operation can complete any more: answer the ones a
		// stopped loop or timer would have.
		s.connMu.Lock()
		for c := range s.conns {
			c.abandon()
		}
		s.connMu.Unlock()
		if s.dur != nil {
			// After tcp.Close the actor loops are stopped, so no persist
			// call can race the log close.
			s.dur.Close()
		}
		if s.qnode != nil {
			// Flushes LSM memtables and releases table files. Safe after
			// the loops stop; a crash instead of a clean close loses only
			// memtable contents, which WAL replay re-installs.
			s.qnode.Close()
		}
	})
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// requestCounter names the counter of requests for op. The op is the
// client's string: counting it verbatim would let a client grow the
// counters, and /metrics, by one series per op name it invents, so every
// op dispatch does not know counts as "unknown".
func requestCounter(op string) string {
	switch op {
	case "put":
		return "server.requests.put"
	case "get":
		return "server.requests.get"
	case "del":
		return "server.requests.del"
	case "status":
		return "server.requests.status"
	case "ring-status":
		return "server.requests.ring-status"
	case "add-node":
		return "server.requests.add-node"
	case "decommission":
		return "server.requests.decommission"
	}
	return "server.requests.unknown"
}

// admin answers an admin operation. Those may wait on the cluster, so
// each runs on a goroutine of its own.
func (s *Server) admin(req Request) Response {
	switch req.Op {
	case "ring-status":
		return s.handleRingStatus()
	case "add-node":
		return s.handleAddNode(req)
	case "decommission":
		return s.handleDecommission()
	}
	resp := Response{OK: true, Model: s.cfg.Model, Zone: s.cfg.Zone}
	if s.el != nil {
		seq, mode, _, _, _ := s.el.snapshot()
		resp.Epoch, resp.State = seq, mode
	}
	return resp
}

// refusal is the typed refusal of a node that left the ring, or is
// draining and req is a write: it redirects the client instead of
// silently serving (or coordinating) against stale ownership.
func (s *Server) refusal(req Request) (Response, bool) {
	if s.el == nil {
		return Response{}, false
	}
	s.el.mu.Lock()
	mode, seq := s.el.mode, s.el.seq
	s.el.mu.Unlock()
	if mode == stateLeft || (mode == stateDraining && req.Op != "get") {
		return Response{
			Err:      fmt.Sprintf("node %s is %s; retry against a current member", s.cfg.ID, mode),
			NotOwner: true,
			Epoch:    seq,
			State:    mode,
		}, true
	}
	return Response{}, false
}

// invocation runs fn as one handler invocation of the storage actor: on a
// durable node through the ack barrier, like a message.
func (s *Server) invocation(env transport.Env, fn func(transport.Env)) {
	if s.ackB == nil {
		fn(env)
		return
	}
	s.ackB.Call(env, fn)
}

// slaRoute resolves a request's SLA tier into a plan: the tier actually
// delivered, the per-request read-quorum override (0 keeps the
// configured R), the coordinator (see coordinator), and the staleness
// measurement that justified the decision.
//
//   - strong (or any write): a full R (or W) quorum.
//   - eventual: an R=1 read coordinated inside this node's zone — local
//     latency, reads may trail remote zones by the replicator lag.
//   - bounded: the eventual plan while this node's measured staleness
//     for every remote zone is within the bound; otherwise it escalates
//     to strong. No measurement yet (boot) counts as over-bound.
func (s *Server) slaRoute(req Request) (tier geo.Kind, rOverride int, coord string, staleMs int64) {
	tier = geo.Kind(req.SLA)
	if req.Op != "get" || tier == geo.Strong {
		return geo.Strong, 0, s.coordinator(req.Key, false), 0
	}
	staleMs = s.maxRemoteStaleness()
	if tier == geo.Bounded {
		if staleMs < 0 || staleMs > req.BoundMs {
			return geo.Strong, 0, s.coordinator(req.Key, false), staleMs
		}
		tier = geo.Eventual
	}
	return tier, 1, s.coordinator(req.Key, true), staleMs
}

// coordinator picks the node that coordinates an operation on key. The
// rule is to coordinate where the client landed: this node, whenever it
// is one of the key's replicas. Quorums intersect whichever replica
// coordinates, a write's dot is derived from the client's request id and
// not from the coordinator, and dual-apply, hints, read repair and the
// redirects of a draining or departed node run wherever the operation
// does. The key's ring owner coordinates instead in three cases:
//
//   - this node is not a replica of the key (N < cluster size);
//   - GeoAsync is on and the operation is a write or a strong read: a
//     write acks on its coordinator's zone's sub-quorum, so a strong read
//     is fresh only because writes and strong reads of a key meet at the
//     one owner;
//   - this node is catching up: its own replica would refuse the read (not ready).
//
// An eventual read (inZone) keeps to the zone instead: this node if it
// is a replica, else the first replica in its zone, else the owner.
func (s *Server) coordinator(key string, inZone bool) string {
	prefs := s.qnode.PreferenceList(key)
	if len(prefs) == 0 {
		return s.cfg.ID
	}
	local := slices.Contains(prefs, s.cfg.ID)
	switch {
	case inZone:
		if local {
			return s.cfg.ID
		}
		for _, p := range prefs {
			if s.cfg.Zones[p] == s.cfg.Zone {
				return p
			}
		}
	case local && !s.cfg.GeoAsync && !s.qnode.CatchingUp():
		return s.cfg.ID
	}
	return prefs[0]
}

// maxRemoteStaleness reports the worst measured replication staleness
// across this node's remote zones, in milliseconds. 0 when the cluster
// is unzoned (nothing is remote); -1 when some remote zone has no
// measurement yet — the conservative answer while beacons warm up.
func (s *Server) maxRemoteStaleness() int64 {
	remote := false
	for _, z := range s.cfg.Zones {
		if z != s.cfg.Zone {
			remote = true
			break
		}
	}
	if !remote {
		return 0
	}
	st := s.qnode.GeoStaleness()
	var max int64
	for _, z := range s.cfg.Zones {
		if z == s.cfg.Zone {
			continue
		}
		ms, ok := st[z]
		if !ok {
			return -1
		}
		if ms > max {
			max = ms
		}
	}
	return max
}

func putResponse(err error) Response {
	if err != nil {
		return Response{Err: err.Error()}
	}
	return Response{OK: true}
}
