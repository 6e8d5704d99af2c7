package chaos

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/gossip"
	"repro/internal/transport"
	"repro/internal/wal"
)

// durableCluster hosts gossip nodes on a Loopback transport, each
// journaling to a real WAL in its own directory — the fixture for
// crash-restart chaos with genuine disk recovery.
type durableCluster struct {
	t     *testing.T
	lb    *transport.Loopback
	ids   []string
	dirs  map[string]string
	logs  map[string]*wal.Log
	nodes map[string]*gossip.Node
	cfg   gossip.Config // Peers/Persist filled per node
}

func newDurableCluster(t *testing.T, n int, seed int64, cfg gossip.Config) *durableCluster {
	t.Helper()
	c := &durableCluster{
		t:     t,
		lb:    transport.NewLoopback(transport.LoopbackConfig{Seed: seed}),
		dirs:  make(map[string]string),
		logs:  make(map[string]*wal.Log),
		nodes: make(map[string]*gossip.Node),
		cfg:   cfg,
	}
	t.Cleanup(func() {
		c.lb.Close()
		for _, l := range c.logs {
			l.Close()
		}
	})
	root := t.TempDir()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%d", i)
		c.ids = append(c.ids, id)
		c.dirs[id] = filepath.Join(root, id)
	}
	for _, id := range c.ids {
		c.lb.AddNode(id, c.rebuild(id))
	}
	return c
}

// rebuild opens (or reopens) id's WAL, builds a fresh node, and replays
// every journaled record into it — real recovery, the path a restarted
// process takes. It is the nemesis's Rebuild hook.
func (c *durableCluster) rebuild(id string) transport.Handler {
	c.t.Helper()
	log, err := wal.Open(c.dirs[id], wal.Options{}) // SyncEach
	if err != nil {
		c.t.Fatalf("open wal for %s: %v", id, err)
	}
	cfg := c.cfg
	cfg.Peers = nil
	for _, peer := range c.ids {
		if peer != id {
			cfg.Peers = append(cfg.Peers, peer)
		}
	}
	cfg.Persist = func(rec []byte) {
		if _, err := log.Append(rec); err != nil {
			panic(fmt.Sprintf("wal append for %s: %v", id, err))
		}
	}
	n := gossip.NewNode(id, cfg, func() int64 { return time.Now().UnixNano() })
	err = log.Replay(1, func(_ uint64, rec []byte) error { return n.ReplayRecord(rec) })
	if err != nil {
		c.t.Fatalf("replay wal for %s: %v", id, err)
	}
	c.logs[id] = log
	c.nodes[id] = n
	return n
}

// crash kills id through the nemesis and closes its WAL handle so the
// restart can reopen the directory cleanly.
func (c *durableCluster) crash(nem *RestartNemesis, id string) {
	nem.Crash(id)
	c.logs[id].Close()
}

func (c *durableCluster) put(id, key, val string) {
	c.t.Helper()
	done := make(chan struct{})
	node := c.nodes[id]
	if !c.lb.Invoke(id, func(env transport.Env) {
		node.Put(env, key, []byte(val))
		close(done)
	}) {
		c.t.Fatalf("put via %s: node stopped", id)
	}
	<-done
}

// await blocks until id holds key.
func (c *durableCluster) await(id, key string) {
	c.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, ok := c.get(id, key); ok {
			return
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("%s never received %s", id, key)
		}
	}
}

// quiesce blocks until the Loopback is quiet: every message sent has been
// delivered or dropped, and two reads of the counters a few milliseconds
// apart agree, so no handler was still running to send another.
func (c *durableCluster) quiesce() {
	c.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for prev := c.lb.Stats(); ; {
		time.Sleep(5 * time.Millisecond)
		cur := c.lb.Stats()
		if cur == prev && cur.MessagesSent == cur.MessagesDelivered+cur.MessagesDropped {
			return
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("the Loopback never went quiet: %+v", cur)
		}
		prev = cur
	}
}

func (c *durableCluster) get(id, key string) (string, bool) {
	c.t.Helper()
	var val string
	var ok bool
	done := make(chan struct{})
	node := c.nodes[id]
	if !c.lb.Invoke(id, func(transport.Env) {
		v, found := node.Get(key)
		val, ok = string(v), found
		close(done)
	}) {
		c.t.Fatalf("get via %s: node stopped", id)
	}
	<-done
	return val, ok
}

func (c *durableCluster) rootHash(id string) uint64 {
	c.t.Helper()
	var h uint64
	done := make(chan struct{})
	node := c.nodes[id]
	if !c.lb.Invoke(id, func(transport.Env) {
		h = node.RootHash()
		close(done)
	}) {
		c.t.Fatalf("root hash of %s: node stopped", id)
	}
	<-done
	return h
}

func (c *durableCluster) waitConverged(timeout time.Duration) {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		root := c.rootHash(c.ids[0])
		same := true
		for _, id := range c.ids[1:] {
			if c.rootHash(id) != root {
				same = false
				break
			}
		}
		if same {
			return
		}
		if time.Now().After(deadline) {
			c.t.Fatal("cluster never converged")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRestartRecoversFromWALNotPeers proves the nemesis restart path is
// real recovery: anti-entropy is effectively disabled (hour-long
// interval), so a restarted node can only hold what its own WAL gave
// back. It must hold every pre-crash key — and must NOT hold the key
// written while it was dead, proving its memory was genuinely lost and
// nothing re-seeded it.
func TestRestartRecoversFromWALNotPeers(t *testing.T) {
	c := newDurableCluster(t, 3, 71, gossip.Config{
		Interval: time.Hour, // no anti-entropy within the test window
		Fanout:   2,
		RumorTTL: 3, // writes still spread immediately via rumors
	})
	nem := NewRestartNemesis(c.lb, c.ids, 71, func(id string) transport.Handler { return c.rebuild(id) })

	for i := 0; i < 10; i++ {
		c.put("n0", fmt.Sprintf("pre%02d", i), "x")
	}
	// Rumor delivery is asynchronous: wait until n2 holds the writes.
	c.await("n2", "pre09")

	c.crash(nem, "n2")
	c.put("n0", "missed", "while-down")
	// put returns once n0 has applied the write; the rumor's second hop
	// (n0 → n1 → n2) runs on n1's goroutine. Restarting before it has been
	// sent, and dropped at the dead n2, would land it on the rebuilt node.
	c.await("n1", "missed")
	c.quiesce()
	nem.Restart("n2")

	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("pre%02d", i)
		if v, ok := c.get("n2", key); !ok || v != "x" {
			t.Fatalf("restarted n2 lost %s (= %q, %v): WAL recovery failed", key, v, ok)
		}
	}
	if v, ok := c.get("n2", "missed"); ok {
		t.Fatalf("restarted n2 has %q=%q: state was not actually lost on crash", "missed", v)
	}
	if len(nem.Events) != 2 {
		t.Fatalf("nemesis logged %d events, want kill+restart", len(nem.Events))
	}
}

// TestRestartNemesisCrashStormConverges runs a workload through
// repeated kill/recover cycles on a 5-node cluster with anti-entropy
// on: after the storm every acknowledged write must be on every node.
func TestRestartNemesisCrashStormConverges(t *testing.T) {
	c := newDurableCluster(t, 5, 137, gossip.Config{
		Interval: 15 * time.Millisecond,
		Fanout:   2,
		RumorTTL: 2,
	})
	nem := NewRestartNemesis(c.lb, c.ids, 137, func(id string) transport.Handler { return c.rebuild(id) })

	acked := make(map[string]string)
	seq := 0
	writeVia := func(id string, n int) {
		for i := 0; i < n; i++ {
			key, val := fmt.Sprintf("key%03d", seq), fmt.Sprintf("val%03d", seq)
			seq++
			c.put(id, key, val)
			acked[key] = val
		}
	}

	writeVia("n0", 8)
	for cycle := 0; cycle < 3; cycle++ {
		victim := nem.CrashOne()
		if victim == "" {
			t.Fatal("nothing to crash")
		}
		c.logs[victim].Close()
		// Keep writing through a survivor while the victim is down.
		for _, id := range c.ids {
			if id != victim {
				writeVia(id, 3)
				break
			}
		}
		nem.RestartOne()
		time.Sleep(30 * time.Millisecond) // a couple of AE rounds
	}
	nem.RestartAll()
	c.waitConverged(20 * time.Second)

	for _, id := range c.ids {
		for key, want := range acked {
			if v, ok := c.get(id, key); !ok || v != want {
				t.Fatalf("%s lost acked write %s (= %q, %v) after crash storm", id, key, v, ok)
			}
		}
	}
	if len(nem.Events) < 6 {
		t.Fatalf("nemesis logged %d events, want >= 6 (3 kill/restart cycles)", len(nem.Events))
	}
}
