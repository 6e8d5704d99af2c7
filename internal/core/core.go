// Package core is the unified surface of the reproduction: a replicated
// key-value store whose consistency model is a configuration knob. It is
// the tutorial's framework as an API — every point on the spectrum the
// paper organizes (eventual ⟶ session ⟶ causal ⟶ tunable quorums ⟶
// strong) is a Model value backed by the corresponding protocol package,
// all running on the same deterministic simulated cluster, so their
// latency, availability, and anomaly behaviour can be compared directly.
//
// Typical use:
//
//	cluster := core.New(core.Options{Model: core.Causal, Seed: 1})
//	client := cluster.NewClient("app")
//	cluster.At(0, func() {
//	    client.Put("k", []byte("v"), func(r core.PutResult) { ... })
//	})
//	cluster.Run(time.Second)
package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/causal"
	"repro/internal/consensus"
	"repro/internal/gossip"
	"repro/internal/quorum"
	"repro/internal/replication"
	"repro/internal/resilience"
	"repro/internal/ring"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Model selects the consistency model (and with it the replication
// protocol) a cluster runs.
type Model int

// The consistency models, weakest first.
const (
	// Eventual is anti-entropy gossip with last-writer-wins convergence:
	// every operation is served by one replica with no coordination.
	Eventual Model = iota
	// Session is eventual consistency plus the four Bayou session
	// guarantees (configurable via Options.Guarantees).
	Session
	// Causal is a COPS-style causal+ store: local-DC latency, causally
	// ordered visibility everywhere.
	Causal
	// Quorum is Dynamo-style tunable N/R/W partial quorums with dotted
	// version vectors (siblings on conflict).
	Quorum
	// PrimaryAsync is primary-copy replication with asynchronous log
	// shipping (fast commit; failover can lose the tail).
	PrimaryAsync
	// PrimarySync is primary-copy replication with synchronous commit.
	PrimarySync
	// Strong is a Multi-Paxos replicated state machine: linearizable,
	// majority round trip per operation.
	Strong
)

// Models lists every model, weakest first — handy for sweeps.
var Models = []Model{Eventual, Session, Causal, Quorum, PrimaryAsync, PrimarySync, Strong}

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case Eventual:
		return "eventual"
	case Session:
		return "session"
	case Causal:
		return "causal"
	case Quorum:
		return "quorum"
	case PrimaryAsync:
		return "primary-async"
	case PrimarySync:
		return "primary-sync"
	case Strong:
		return "strong"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Options configures a cluster. The zero value plus a Model is usable.
type Options struct {
	// Model selects the consistency model.
	Model Model
	// Nodes is the number of storage nodes (default 5). For Causal it is
	// the number of data centers (each with Shards shard nodes).
	Nodes int
	// Shards is the per-DC shard count for Causal (default 2).
	Shards int
	// QuorumShards is the execution shard count for the Quorum model's
	// nodes (default 1). Under the
	// deterministic simulator sharding changes the protocol surface
	// (per-shard request-id minting and state partitioning) without
	// introducing real concurrency, so seeded runs stay reproducible.
	QuorumShards int
	// QuorumStorage, when non-nil, builds the storage engine backing
	// each Quorum node's replica-state shards (e.g. disk-resident LSM
	// engines rooted in per-node directories). Default: in-memory
	// storage.KV per shard. Engines are released by Cluster teardown via
	// quorum.Node.Close.
	QuorumStorage func(node string, shard int) storage.Engine
	// Seed drives all randomness.
	Seed int64
	// Latency overrides the network model (default: uniform 1–5ms LAN).
	Latency sim.LatencyModel

	// N, R, W tune the Quorum model (defaults 3, 2, 2).
	N, R, W int
	// Elastic places a Quorum cluster's keys on a consistent-hash ring
	// and runs the quorum nodes' membership protocol over it, with
	// anti-entropy on, as the server does: a node joins (Join) or
	// decommissions (QuorumNode(id).Decommission) online.
	Elastic bool
	// ReadRepair and SloppyQuorum toggle the Quorum model's mechanisms.
	ReadRepair   bool
	SloppyQuorum bool

	// Guarantees selects the Session model's guarantees (default: all
	// four).
	Guarantees *session.Guarantees

	// SyncAcks is the PrimarySync backup-ack requirement (default all).
	SyncAcks int

	// AntiEntropyInterval tunes Eventual and Session propagation
	// (default 50ms).
	AntiEntropyInterval time.Duration

	// Resilience, when non-nil, turns on the fault-tolerance layer
	// everywhere it is wired: store-side replica-RPC retries, sloppy
	// fast fallback and read hedging (Quorum), and client-side
	// retry/failover for every model's client. A shared phi-accrual failure detector is
	// fed by the simulator's delivery hook; all jitter draws from the
	// simulation RNG, so runs stay deterministic per seed.
	Resilience *resilience.Policy
}

func (o Options) withDefaults() Options {
	if o.Nodes <= 0 {
		o.Nodes = 5
	}
	if o.Shards <= 0 {
		o.Shards = 2
	}
	if o.N <= 0 {
		o.N = 3
	}
	if o.R <= 0 {
		o.R = 2
	}
	if o.W <= 0 {
		o.W = 2
	}
	if o.Guarantees == nil {
		g := session.All()
		o.Guarantees = &g
	}
	if o.AntiEntropyInterval <= 0 {
		o.AntiEntropyInterval = 50 * time.Millisecond
	}
	return o
}

// GetResult is the unified read completion.
type GetResult struct {
	Key string
	// Values holds the result. Under Quorum, concurrent writes may yield
	// multiple sibling values; every other model returns at most one.
	Values [][]byte
	Err    error
}

// Value returns the single value (the first sibling if several).
func (r GetResult) Value() ([]byte, bool) {
	if len(r.Values) == 0 {
		return nil, false
	}
	return r.Values[0], true
}

// PutResult is the unified write completion.
type PutResult struct {
	Key string
	Err error
}

// ErrUnavailable is returned when the model cannot complete the
// operation (timeout, no quorum, no leader, ...).
var ErrUnavailable = errors.New("core: operation unavailable")

// Cluster is a simulated replicated store with a chosen consistency
// model.
type Cluster struct {
	opts    Options
	sim     *sim.Cluster
	nodeIDs []string

	// Model-specific server handles.
	gossipNodes []*gossip.Node
	quorumNodes []*quorum.Node
	causalTopo  causal.Topology

	// Resilience plumbing (nil unless Options.Resilience is set).
	resDir      *resilience.Directory
	resCounters *resilience.Counters

	clients int
}

// New builds a cluster with opts.
func New(opts Options) *Cluster {
	opts = opts.withDefaults()
	sc := sim.Config{Seed: opts.Seed, Latency: opts.Latency}
	c := &Cluster{opts: opts}
	if opts.Resilience != nil {
		c.opts.Resilience = opts.Resilience.Normalized()
		c.resDir = resilience.NewDirectory(c.opts.Resilience)
		c.resCounters = resilience.NewCounters()
		// Every delivered message doubles as failure-detector evidence.
		sc.OnDeliver = c.resDir.Observe
	}
	c.sim = sim.New(sc)
	switch opts.Model {
	case Eventual:
		c.buildGossip()
	case Session:
		c.buildSession()
	case Causal:
		c.buildCausal()
	case Quorum:
		c.buildQuorum()
	case PrimaryAsync, PrimarySync:
		c.buildPrimary()
	case Strong:
		c.buildPaxos()
	default:
		panic(fmt.Sprintf("core: unknown model %v", opts.Model))
	}
	return c
}

func (c *Cluster) nodeName(i int) string { return fmt.Sprintf("node%d", i) }

func (c *Cluster) allNodeIDs() []string {
	ids := make([]string, c.opts.Nodes)
	for i := range ids {
		ids[i] = c.nodeName(i)
	}
	return ids
}

func (c *Cluster) buildGossip() {
	ids := c.allNodeIDs()
	c.nodeIDs = ids
	for _, id := range ids {
		peers := make([]string, 0, len(ids)-1)
		for _, p := range ids {
			if p != id {
				peers = append(peers, p)
			}
		}
		n := gossip.NewNode(id, gossip.Config{
			Peers:    peers,
			Interval: c.opts.AntiEntropyInterval,
			Fanout:   2,
			RumorTTL: 2,
		}, c.nowMillis)
		c.gossipNodes = append(c.gossipNodes, n)
		c.sim.AddNode(id, &gossipAdapter{Node: n})
	}
}

func (c *Cluster) nowMillis() int64 { return int64(c.sim.Now() / time.Millisecond) }

func (c *Cluster) buildSession() {
	ids := c.allNodeIDs()
	c.nodeIDs = ids
	for _, id := range ids {
		cfg := session.ServerConfig{AntiEntropyInterval: c.opts.AntiEntropyInterval}
		for _, p := range ids {
			if p != id {
				cfg.Peers = append(cfg.Peers, p)
			}
		}
		c.sim.AddNode(id, session.NewServer(id, cfg))
	}
}

func (c *Cluster) buildCausal() {
	dcs := make([]string, c.opts.Nodes)
	for i := range dcs {
		dcs[i] = fmt.Sprintf("dc%d", i)
	}
	c.causalTopo = causal.Topology{DCs: dcs, ShardsPerDC: c.opts.Shards}
	for _, dc := range dcs {
		for s := 0; s < c.opts.Shards; s++ {
			n := causal.NewNode(c.causalTopo, dc, s)
			c.nodeIDs = append(c.nodeIDs, n.ID())
			c.sim.AddNode(n.ID(), n)
		}
	}
}

func (c *Cluster) buildQuorum() {
	for _, id := range c.allNodeIDs() {
		c.addQuorumNode(id, c.allNodeIDs())
	}
}

// addQuorumNode boots quorum node id on a cluster of members.
func (c *Cluster) addQuorumNode(id string, members []string) {
	cfg := quorum.Config{
		Ring: members, N: c.opts.N, R: c.opts.R, W: c.opts.W,
		ReadRepair: c.opts.ReadRepair, SloppyQuorum: c.opts.SloppyQuorum,
		Resilience: c.opts.Resilience, Directory: c.resDir, Counters: c.resCounters,
		Shards: c.opts.QuorumShards, AntiEntropy: c.opts.Elastic,
	}
	if c.opts.Elastic {
		cfg.Placement = ring.New(members, ring.DefaultVirtualNodes)
	}
	if c.opts.QuorumStorage != nil {
		cfg.Storage = func(shard int) storage.Engine { return c.opts.QuorumStorage(id, shard) }
	}
	n := quorum.NewNode(id, cfg)
	c.nodeIDs = append(c.nodeIDs, id)
	c.quorumNodes = append(c.quorumNodes, n)
	c.sim.AddNode(id, n)
}

// Join boots quorum node id owning nothing, on the members of
// coordinator's epoch, and has coordinator admit it (quorum.Node.Join):
// acked runs once every member has installed the join epoch, and the new
// node's state is "ok" once its arcs have streamed in. Elastic clusters
// only.
func (c *Cluster) Join(coordinator, id string, acked func()) error {
	coord := c.QuorumNode(coordinator)
	c.addQuorumNode(id, coord.Epoch().Ring.Members())
	return coord.Join(c.sim.ClientEnv(coordinator), id, "", "", acked)
}

// QuorumNode returns the Quorum model's node id (nil if there is none),
// for its membership entry points and its state.
func (c *Cluster) QuorumNode(id string) *quorum.Node {
	if i := slices.Index(c.nodeIDs, id); i >= 0 && i < len(c.quorumNodes) {
		return c.quorumNodes[i]
	}
	return nil
}

// Close releases resources held by the cluster's nodes (today: the
// Quorum model's per-shard storage engines). Optional for purely
// in-memory clusters.
func (c *Cluster) Close() error {
	var first error
	for _, n := range c.quorumNodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (c *Cluster) buildPrimary() {
	ids := c.allNodeIDs()
	c.nodeIDs = ids
	mode := replication.Async
	if c.opts.Model == PrimarySync {
		mode = replication.Sync
	}
	cfg := replication.Config{
		Primary: ids[0], Backups: ids[1:], Mode: mode, SyncAcks: c.opts.SyncAcks,
	}
	for _, id := range ids {
		c.sim.AddNode(id, replication.NewNode(id, cfg))
	}
}

func (c *Cluster) buildPaxos() {
	ids := c.allNodeIDs()
	c.nodeIDs = ids
	for _, id := range ids {
		c.sim.AddNode(id, consensus.NewNode(id, consensus.Config{Peers: ids}))
	}
}

// Nodes returns the storage node ids.
func (c *Cluster) Nodes() []string { return append([]string(nil), c.nodeIDs...) }

// Sim exposes the underlying simulator for fault injection (Partition,
// Heal, Crash, Restart) and stats.
func (c *Cluster) Sim() *sim.Cluster { return c.sim }

// At schedules fn at absolute virtual time t.
func (c *Cluster) At(t time.Duration, fn func()) { c.sim.At(t, fn) }

// After schedules fn after d from now.
func (c *Cluster) After(d time.Duration, fn func()) { c.sim.After(d, fn) }

// Run advances the simulation to the given horizon.
func (c *Cluster) Run(until time.Duration) { c.sim.Run(until) }

// Now returns the current virtual time.
func (c *Cluster) Now() time.Duration { return c.sim.Now() }

// Model returns the cluster's consistency model.
func (c *Cluster) Model() Model { return c.opts.Model }

// ResilienceCounters returns the cluster-wide resilience event counters,
// or nil when the resilience layer is off.
func (c *Cluster) ResilienceCounters() *resilience.Counters { return c.resCounters }
