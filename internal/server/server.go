package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

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
// protocol node, the client connections it serves, and the HTTP sidecar.
// It keeps no state for its clients beyond their open connections: a
// quorum client's causal context and a session client's token travel
// with its requests.
type Server struct {
	cfg    Config
	tcp    *transport.TCP
	ring   *ring.Ring // gossip and session: the boot ring (a quorum node's ring is its installed epoch's)
	dir    *resilience.Directory
	policy *resilience.Policy

	lsmEngines []*lsm.Engine   // Engine "lsm": per-shard trees, for metrics and close
	gossipN    *gossip.Node    // gossip model: ops run on the storage actor itself
	sessN      *session.Server // session model: ops run on the storage actor itself
	qnode      *quorum.Node    // quorum model: the storage actor's protocol node
	dur        *durability     // nil unless Config.DataDir set
	ackB       *ackBarrier     // nil unless durable: holds acks until fsync
	httpLn     net.Listener
	statMu     sync.Mutex // guards reqCount and reqLat
	reqCount   *metrics.Counters
	reqLat     *metrics.Histogram
	connMu     sync.Mutex               // guards conns
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
	// storage actor (and, on a durable node, WAL recovery) comes later in
	// New — a request dispatched in that window would hit a half-built
	// server. Connection handlers park here until boot completes; on a
	// restart with a large WAL that means the first client blocks for
	// the replay instead of racing it.
	ready chan struct{}
}

// incarnationShift places a boot's incarnation above every request id
// the quorum node can issue in one boot (2^40: four months at 100,000 a
// second). Request ids name writes, a quorum dot being (node, request
// id), so an identity issued after a restart never repeats one issued
// before it, and a first boot issues exactly what it did before
// incarnations existed.
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
	switch c.Model {
	case "quorum":
	case "gossip", "session":
		for _, q := range []struct { // the settings only a quorum node reads
			name string
			set  bool
		}{
			{"Joining", c.Joining},
			{"GeoAsync", c.GeoAsync},
			{`Engine "lsm"`, c.Engine == "lsm"},
			{"TransferRate", c.TransferRate != 0},
			{"TransferBatch", c.TransferBatch != 0},
		} {
			if q.set {
				return fmt.Errorf("server: %s requires the quorum model, not %q", q.name, c.Model)
			}
		}
	default:
		return fmt.Errorf("server: unknown model %q (want gossip, quorum, or session)", c.Model)
	}
	if c.Joining && len(c.Peers) < 2 {
		return errors.New("server: a joining node needs at least one existing peer")
	}
	switch c.Engine {
	case "", "mem":
	case "lsm":
		if c.DataDir == "" {
			return errors.New("server: Engine \"lsm\" requires a DataDir (the WAL is its redo log)")
		}
	default:
		return fmt.Errorf("server: unknown engine %q (want mem or lsm)", c.Engine)
	}
	return nil
}

// New starts a node: binds the transport, boots the protocol node,
// serves its clients, and serves HTTP if configured.
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
	slices.Sort(members)
	others := slices.DeleteFunc(slices.Clone(members), func(m string) bool { return m == cfg.ID })

	// A joiner owns nothing at boot: its placement ring is the cluster
	// WITHOUT itself until the join epoch arrives and its arcs stream in.
	ringMembers := members
	if cfg.Joining {
		ringMembers = others
	}

	boot := ring.NewZoned(ringMembers, ring.DefaultVirtualNodes, cfg.Zones)
	s := &Server{
		cfg:      cfg,
		ready:    make(chan struct{}),
		dir:      resilience.NewDirectory(policy),
		policy:   policy,
		reqCount: metrics.NewCounters(),
		reqLat:   metrics.NewHistogram(),
		conns:    make(map[*clientConn]struct{}),
	}
	// Wake parked connection handlers however New exits — they check
	// booted and drop the connection if boot failed.
	defer close(s.ready)

	// With a DataDir the node journals through a WAL; the Persist hook
	// is handed to the protocol config and runs on the storage actor's
	// loop before acks, so wal.SyncEach means durable-before-ack.
	var persist func(rec []byte)
	if cfg.DataDir != "" {
		d, err := openDurability(cfg.DataDir, cfg.Fsync, cfg.Logf)
		if err != nil {
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
		// it (with three nodes, the one that issued it). Anti-entropy
		// repairs a chain that revisits a node and stops short.
		ttl := max(1, len(others)-1)
		s.gossipN = gossip.NewNode(cfg.ID, gossip.Config{Peers: others, RumorTTL: ttl, Persist: persist},
			func() int64 { return time.Now().UnixNano() })
		node, handler = s.gossipN, s.gossipN
	case "quorum":
		n, r, w := quorumParams(cfg, len(ringMembers))
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
			Placement:     boot,
			OnPeers:       func(addrs map[string]string) { s.tcp.SetPeers(addrs) },
			TransferRate:  cfg.TransferRate,
			TransferBatch: cfg.TransferBatch,
			Shards:        shards,
			Zone:          cfg.Zone,
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
					return nil, fmt.Errorf("server %s: open lsm shard %d: %w", cfg.ID, i, err)
				}
				s.lsmEngines = append(s.lsmEngines, e)
			}
			qcfg.Storage = func(shard int) storage.Engine { return s.lsmEngines[shard] }
		}
		qn := quorum.NewNode(cfg.ID, qcfg)
		qn.SetAddrs(cfg.Peers)
		s.qnode = qn
		node, handler = qn, qn
	case "session":
		s.sessN = session.NewServer(cfg.ID, session.ServerConfig{Peers: others, Persist: persist})
		node, handler = s.sessN, s.sessN
	}

	if s.qnode == nil {
		s.ring = boot
	}
	// The transport comes after the node whose frames it carries: its
	// writers consult the link delay, and so the node's epoch, from the
	// moment it binds.
	var linkDelay func(string) time.Duration
	if cfg.XZoneDelay > 0 && len(cfg.Zones) > 0 {
		own, d := cfg.Zone, cfg.XZoneDelay
		linkDelay = func(peer string) time.Duration {
			if s.Ring().ZoneOf(peer) != own {
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
		if s.qnode != nil {
			s.qnode.Close()
		}
		if s.dur != nil {
			s.dur.Close()
		}
		return nil, err
	}
	s.tcp = tcp

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
	if s.qnode != nil {
		s.qnode.StartRequestsAt(s.incarnation << incarnationShift)
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
	if s.dur != nil && cfg.CheckpointInterval >= 0 {
		interval := cfg.CheckpointInterval
		if interval == 0 {
			interval = 5 * time.Second
		}
		// Capture (state image, WAL seq) on the storage actor's loop. The
		// seq is read BEFORE the capture: a record journaled by seq-read
		// time had its mutation applied first (same goroutine), so the
		// image — which locks each shard after that — contains every
		// mutation the covered prefix holds. Shard goroutines may append
		// past seq while the capture runs; those mutations land in the
		// image early, and their records survive truncation and re-apply
		// idempotently. The image is written to disk off the loop.
		s.dur.startCheckpointer(interval, func() (io.WriterTo, uint64, bool) {
			var state io.WriterTo
			var seq uint64
			captured := make(chan struct{})
			if !s.tcp.Invoke(cfg.ID, func(transport.Env) {
				seq = s.dur.log.LastSeq()
				state = node.Checkpoint()
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
	n = min(n, size)
	if r <= 0 {
		r = (n + 1) / 2
	}
	if w <= 0 {
		w = n/2 + 1
	}
	return n, min(r, n), min(w, n)
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

// Ring returns the placement ring: a quorum node's installed epoch's
// (immutable; a new one is swapped in when a membership epoch installs),
// the boot ring for the other models.
func (s *Server) Ring() *ring.Ring {
	if s.qnode != nil {
		return s.qnode.Epoch().Ring
	}
	return s.ring
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

// op is one operation a client may name: the counter of its requests
// and, for an admin op, its handler. An admin op may wait on the
// cluster, so each runs on a goroutine of its own; a data op (nil admin)
// runs on the protocol.
type op struct {
	counter string
	admin   func(*Server, Request) Response
}

// ops lists every op. The name is the client's string: counting it
// verbatim would let a client grow the counters, and /metrics, by one
// series per name it invents, so the names not listed share one counter,
// "server.requests.unknown".
var ops = map[string]op{
	"put":          {"server.requests.put", nil},
	"get":          {"server.requests.get", nil},
	"del":          {"server.requests.del", nil},
	"status":       {"server.requests.status", (*Server).statusOp},
	"add-node":     {"server.requests.add-node", (*Server).handleAddNode},
	"decommission": {"server.requests.decommission", (*Server).handleDecommission},
}
