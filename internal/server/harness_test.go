package server

import (
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/resilience"
	"repro/internal/wal"
)

// fastBeat is the heartbeat interval of the tests that watch the
// failure detector or count what a live cluster sends.
const fastBeat = 20 * time.Millisecond

// spec describes the cluster bootCluster starts. A zero field is the
// common case: the quorum model, three nodes, the default resilience
// policy, no data directories and no zones.
type spec struct {
	model string // "quorum" when empty
	n     int    // nodes, node0 to node<n-1>; 3 when 0
	seed  int64  // node i's seed is seed+i
	// heartbeat is the liveness heartbeat interval (0 keeps the policy
	// default).
	heartbeat time.Duration
	http      bool // bind each node's metrics listener
	// durable gives each node a data directory, fsync per record, and
	// ckpt as its checkpoint interval (negative disables checkpointing).
	durable bool
	ckpt    time.Duration
	// zones spreads the nodes round-robin over these zones, with async
	// cross-zone replication and xzDelay injected on every cross-zone
	// frame (the local stand-in for WAN RTT).
	zones   []string
	xzDelay time.Duration
	// config has the last word on every node's Config, a joiner's too.
	config func(*Config)
}

// cluster is a running cluster: the Config each node booted with, and
// the node (nil once stopped). The test's cleanup stops every node.
type cluster struct {
	t    testing.TB
	cfgs []Config
	srvs []*Server
}

// bootCluster starts the nodes sp describes on loopback TCP.
func bootCluster(t testing.TB, sp spec) *cluster {
	t.Helper()
	if sp.model == "" {
		sp.model = "quorum"
	}
	if sp.n == 0 {
		sp.n = 3
	}
	ids := make([]string, sp.n)
	peers := make(map[string]string, sp.n)
	for i, a := range reservePorts(t, sp.n) {
		ids[i] = fmt.Sprintf("node%d", i)
		peers[ids[i]] = a
	}
	var policy *resilience.Policy
	if sp.heartbeat != 0 {
		policy = &resilience.Policy{HeartbeatInterval: sp.heartbeat}
	}
	var zones map[string]string
	if len(sp.zones) > 0 {
		zones = geo.AssignRoundRobin(ids, sp.zones)
	}
	root := t.TempDir()
	c := &cluster{t: t, cfgs: make([]Config, sp.n), srvs: make([]*Server, sp.n)}
	t.Cleanup(func() {
		for i := len(c.srvs) - 1; i >= 0; i-- {
			c.stop(i)
		}
	})
	for i, id := range ids {
		cfg := Config{ID: id, Model: sp.model, Peers: peers, Policy: policy, Seed: sp.seed + int64(i)}
		if sp.http {
			cfg.ListenHTTP = "127.0.0.1:0"
		}
		if sp.durable {
			cfg.DataDir, cfg.Fsync, cfg.CheckpointInterval = filepath.Join(root, id), wal.SyncEach, sp.ckpt
		}
		if zones != nil {
			cfg.Zone, cfg.Zones, cfg.GeoAsync, cfg.XZoneDelay = zones[id], zones, true, sp.xzDelay
		}
		if sp.config != nil {
			sp.config(&cfg)
		}
		c.cfgs[i] = cfg
		c.start(i)
	}
	return c
}

// start boots node i from its Config.
func (c *cluster) start(i int) *Server {
	c.t.Helper()
	s, err := New(c.cfgs[i])
	if err != nil {
		c.t.Fatalf("start %s: %v", c.cfgs[i].ID, err)
	}
	c.srvs[i] = s
	return s
}

// dial connects a client called name to node i.
func (c *cluster) dial(i int, name string) *Client {
	c.t.Helper()
	return dialNode(c.t, c.srvs[i], name)
}

// stop closes node i, if it runs.
func (c *cluster) stop(i int) {
	if c.srvs[i] != nil {
		c.srvs[i].Close()
		c.srvs[i] = nil
	}
}

// restart stops node i and boots it again from the same Config: from
// its data directory when it has one, empty when it has none. A joiner
// comes back without the join flag, as `ecctl restart` brings it back.
func (c *cluster) restart(i int) *Server {
	c.t.Helper()
	c.stop(i)
	c.cfgs[i].Joining = false
	return c.start(i)
}

// join boots the next node as a live joiner in zone: the newest
// member's peers plus itself, its own data directory, and Joining, so it
// owns nothing until a member admits it (Client.AddNode) and the join
// epoch lands.
func (c *cluster) join(seed int64, zone string) *Server {
	c.t.Helper()
	last := c.cfgs[len(c.cfgs)-1]
	id := fmt.Sprintf("node%d", len(c.cfgs))
	peers := make(map[string]string, len(last.Peers)+1)
	for k, v := range last.Peers {
		peers[k] = v
	}
	peers[id] = reservePorts(c.t, 1)[0]
	cfg := c.cfgs[0]
	cfg.ID, cfg.Peers, cfg.Seed, cfg.Zone, cfg.Joining = id, peers, seed, zone, true
	cfg.DataDir = filepath.Join(c.t.TempDir(), id)
	c.cfgs = append(c.cfgs, cfg)
	c.srvs = append(c.srvs, nil)
	return c.start(len(c.cfgs) - 1)
}

// reservePorts grabs n distinct loopback addresses by binding and
// releasing ephemeral listeners. The tiny rebind window is the standard
// trade for a cluster whose members must agree on the peer map before
// any of them starts.
func reservePorts(t testing.TB, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

func dialNode(t testing.TB, s *Server, id string) *Client {
	t.Helper()
	c, err := Dial(s.Addr(), id)
	if err != nil {
		t.Fatalf("dial %s: %v", s.ID(), err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}
