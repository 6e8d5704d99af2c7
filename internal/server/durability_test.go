package server

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/quorum"
	"repro/internal/wal"
)

// TestSingleNodeRecoveryPerModel proves disk-only recovery for every
// model: a one-node cluster (no peer can re-seed it) is written to,
// shut down, and restarted from its data dir — the keys must be served
// straight from WAL replay.
func TestSingleNodeRecoveryPerModel(t *testing.T) {
	for _, model := range []string{"gossip", "quorum", "session"} {
		t.Run(model, func(t *testing.T) {
			cl := bootCluster(t, spec{model: model, n: 1, seed: 2000, heartbeat: fastBeat, durable: true, ckpt: -1})
			c := cl.dial(0, "cli")
			for i := 0; i < 10; i++ {
				if err := c.Put(fmt.Sprintf("key%d", i), []byte(fmt.Sprintf("val%d", i))); err != nil {
					t.Fatalf("put key%d: %v", i, err)
				}
			}
			if err := c.Delete("key3"); err != nil {
				t.Fatal(err)
			}
			c.Close()
			s2 := cl.restart(0)
			if got := s2.dur.Replayed(); got == 0 {
				t.Fatal("restarted node replayed no WAL records")
			}
			c2 := dialNode(t, s2, "cli2")
			for i := 0; i < 10; i++ {
				key, want := fmt.Sprintf("key%d", i), fmt.Sprintf("val%d", i)
				v, found, err := c2.Get(key)
				if i == 3 {
					if err != nil || found {
						t.Fatalf("deleted %s resurrected after recovery: %q/%v/%v", key, v, found, err)
					}
					continue
				}
				if err != nil || !found || string(v) != want {
					t.Fatalf("recovered get %s = %q/%v/%v, want %q", key, v, found, err, want)
				}
			}
		})
	}
}

// TestCheckpointBoundsReplay lets the background checkpointer run, then
// restarts the node: recovery must come mostly from the snapshot, with
// only the post-checkpoint log suffix replayed.
func TestCheckpointBoundsReplay(t *testing.T) {
	cl := bootCluster(t, spec{model: "gossip", n: 1, seed: 2000, heartbeat: fastBeat, durable: true, ckpt: 50 * time.Millisecond})
	s := cl.srvs[0]
	c := cl.dial(0, "cli")
	const total = 60
	for i := 0; i < total; i++ {
		if err := c.Put(fmt.Sprintf("ck%02d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.dur.CheckpointSeq() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background checkpointer never ran")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// A handful of post-checkpoint writes form the replay suffix.
	for i := 0; i < 5; i++ {
		if err := c.Put(fmt.Sprintf("suffix%d", i), []byte("y")); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	s2 := cl.restart(0)
	if replayed := s2.dur.Replayed(); replayed >= total {
		t.Fatalf("replayed %d records — checkpoint did not bound recovery", replayed)
	}
	if s2.dur.CheckpointSeq() == 0 {
		t.Fatal("checkpoint seq not recovered from snapshot")
	}
	c2 := dialNode(t, s2, "cli2")
	for _, key := range []string{"ck00", "ck59", "suffix4"} {
		if _, found, err := c2.Get(key); err != nil || !found {
			t.Fatalf("key %s lost across checkpointed recovery (%v)", key, err)
		}
	}
}

// recorder collects a check.History from concurrent clients.
type recorder struct {
	mu    sync.Mutex
	h     check.History
	start time.Time
}

func (r *recorder) add(op check.Op) {
	r.mu.Lock()
	r.h = append(r.h, op)
	r.mu.Unlock()
}

func (r *recorder) now() time.Duration { return time.Since(r.start) }

// TestQuorumCrashRestartZeroLostAckedWrites is the acceptance scenario:
// a 3-node quorum cluster over real TCP, SyncEach fsync, a workload in
// flight; one node is killed mid-workload, the survivors keep serving,
// and the node is restarted from its data dir. The recovered cluster
// must hold every acknowledged write, the recovered node must actually
// replay from disk, every node must serve every key (convergence), and
// the recorded history must stay per-client monotonic. The scenario
// runs once per storage engine: the in-memory KV and the disk-resident
// LSM engine must be indistinguishable through this recovery path —
// the server WAL is the redo log either way, so a kill may only cost
// the LSM memtable, which replay restores.
func TestQuorumCrashRestartZeroLostAckedWrites(t *testing.T) {
	for _, engine := range []string{"mem", "lsm"} {
		engine := engine
		t.Run("engine="+engine, func(t *testing.T) {
			quorumCrashRestartScenario(t, engine)
		})
	}
}

func quorumCrashRestartScenario(t *testing.T, engine string) {
	sp := spec{seed: 2000, heartbeat: fastBeat, durable: true, ckpt: 200 * time.Millisecond}
	if engine != "mem" {
		sp.config = func(c *Config) { c.Engine = engine }
	}
	cl := bootCluster(t, sp)
	srvs := cl.srvs

	rec := &recorder{start: time.Now()}
	versionOf := func(v string) int {
		n, _ := strconv.Atoi(strings.TrimPrefix(v, "v"))
		return n
	}
	acked := make(map[string]string) // key -> acked value

	put := func(c *Client, client, key, val string) {
		start := rec.now()
		err := c.Put(key, []byte(val))
		op := check.Op{Kind: check.Write, Key: key, Value: val, OK: err == nil, Client: client, Start: start, End: rec.now()}
		if err != nil {
			op.Maybe = true // timed out: may or may not have applied
		} else {
			acked[key] = val
		}
		rec.add(op)
	}
	get := func(c *Client, client, key string) {
		start := rec.now()
		v, found, err := c.Get(key)
		if err != nil {
			return // timed-out reads are omitted from histories
		}
		rec.add(check.Op{Kind: check.Read, Key: key, Value: string(v), OK: found, Client: client, Start: start, End: rec.now()})
	}

	c0 := dialNode(t, srvs[0], "alice")
	c1 := dialNode(t, srvs[1], "bob")

	// Phase 1: both clients write and read with all nodes up.
	for i := 0; i < 14; i++ {
		key := fmt.Sprintf("k%02d", i)
		put(c0, "alice", key, fmt.Sprintf("v%d", i+1))
		get(c1, "bob", key)
	}

	// Node0 and node1 meet W=2 for every put node0 coordinates, so node2's
	// replica may still be receiving them: wait until its journal holds
	// all 14, so that the kill below is a kill of a node with state.
	const phase1 = 14
	for deadline := time.Now().Add(10 * time.Second); srvs[2].dur.log.LastSeq() < phase1; {
		if time.Now().After(deadline) {
			t.Fatalf("node2 journaled %d records, want %d", srvs[2].dur.log.LastSeq(), phase1)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Kill node2 mid-workload: its memory is gone; only its WAL remains.
	cl.stop(2)

	// Phase 2: the cluster keeps taking acknowledged writes (sloppy
	// quorum: fallbacks + hinted handoff cover the dead replica).
	for i := 14; i < 28; i++ {
		key := fmt.Sprintf("k%02d", i)
		put(c1, "bob", key, fmt.Sprintf("v%d", i+1))
		get(c0, "alice", key)
	}

	// Restart node2 from its data dir, same identity and address.
	s2 := cl.restart(2)
	// Every phase-1 record comes back from disk: replayed from the WAL,
	// or covered by a checkpoint the node took before the kill.
	if got := s2.dur.CheckpointSeq() + s2.dur.Replayed(); got < phase1 {
		t.Fatalf("restarted node recovered %d records from disk (checkpoint through %d, %d replayed), want %d",
			got, s2.dur.CheckpointSeq(), s2.dur.Replayed(), phase1)
	}

	// Phase 3: workload continues, now through the recovered node too.
	c2 := dialNode(t, srvs[2], "carol")
	for i := 28; i < 36; i++ {
		key := fmt.Sprintf("k%02d", i)
		put(c2, "carol", key, fmt.Sprintf("v%d", i+1))
		get(c2, "carol", key)
	}

	// Zero lost acknowledged writes: every acked (key, value) must be
	// readable — through the recovered node.
	for key, want := range acked {
		v, found, err := c2.Get(key)
		if err != nil || !found || string(v) != want {
			t.Fatalf("acked write lost after crash-restart: %s = %q/%v/%v, want %q", key, v, found, err, want)
		}
		rec.add(check.Op{Kind: check.Read, Key: key, Value: string(v), OK: found, Client: "carol", Start: rec.now(), End: rec.now()})
	}
	// Convergence: every node serves every acked key.
	deadline := time.Now().Add(20 * time.Second)
	for i, c := range []*Client{c0, c1, c2} {
		for key, want := range acked {
			for {
				v, found, err := c.Get(key)
				if err == nil && found && string(v) == want {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("node%d never converged on %s: %q/%v/%v", i, key, v, found, err)
				}
				time.Sleep(50 * time.Millisecond)
			}
		}
	}

	if !check.MonotonicPerClient(rec.h, versionOf) {
		t.Fatalf("history violates per-client monotonicity across crash-restart:\n%v", rec.h)
	}
}

// TestGossipRestartServesPreKillKeysThenSyncsDelta checks the recovery
// split for the gossip model: keys written before the kill come back
// from the node's own WAL immediately (local reads, no anti-entropy
// needed), while the delta written during the outage arrives via Merkle
// sync afterward.
func TestGossipRestartServesPreKillKeysThenSyncsDelta(t *testing.T) {
	cl := bootCluster(t, spec{model: "gossip", seed: 2000, heartbeat: fastBeat, durable: true, ckpt: -1})
	srvs := cl.srvs

	c0 := dialNode(t, srvs[0], "cli0")
	for i := 0; i < 8; i++ {
		if err := c0.Put(fmt.Sprintf("pre%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until node2 has every pre-kill key, so its WAL journals them
	// all: rumors arrive in no particular order, and the last key put can
	// get there before the first.
	c2 := dialNode(t, srvs[2], "cli2")
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 8; {
		key := fmt.Sprintf("pre%d", i)
		if _, found, err := c2.Get(key); err == nil && found {
			i++
			continue
		}
		if time.Now().After(deadline) {
			t.Fatalf("node2 never received pre-kill key %s", key)
		}
		time.Sleep(20 * time.Millisecond)
	}
	c2.Close()
	cl.stop(2)

	// The delta node2 misses while down.
	if err := c0.Put("delta", []byte("missed")); err != nil {
		t.Fatal(err)
	}

	s2 := cl.restart(2)
	if s2.dur.Replayed() == 0 {
		t.Fatal("restarted gossip node replayed no WAL records")
	}
	// Pre-kill keys are local reads straight from recovery — no waiting.
	c2b := dialNode(t, srvs[2], "cli2b")
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("pre%d", i)
		if v, found, err := c2b.Get(key); err != nil || !found || string(v) != "x" {
			t.Fatalf("recovered node lost pre-kill key %s: %q/%v/%v", key, v, found, err)
		}
	}
	// The missed delta arrives by Merkle sync.
	deadline = time.Now().Add(10 * time.Second)
	for {
		v, found, err := c2b.Get("delta")
		if err == nil && found && string(v) == "missed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered node never Merkle-synced the missed delta: %q/%v/%v", v, found, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// BenchmarkRecover times durability.recover over a journal of real
// quorum records, as a durable node replays it at boot: serially
// (lanes=1) and split by key across the node's shards plus the serial
// lane, as New does. The journal is built once by one sharded node
// taking puts; each iteration recovers it into a fresh node.
func BenchmarkRecover(b *testing.B) {
	const writers, perWriter = 4, 10000
	cl := bootCluster(b, spec{n: 1, durable: true, ckpt: -1, config: func(c *Config) { c.Fsync = wal.SyncNone }})
	s, cfg := cl.srvs[0], cl.cfgs[0]
	value := make([]byte, 128)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		c := dialNode(b, s, fmt.Sprintf("loader%d", w))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := c.Put(fmt.Sprintf("key-%d-%d", w, i), value); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		b.Fatal(err)
	}
	shards := s.qnode.Shards()
	cl.stop(0)

	qcfg := quorum.Config{Ring: []string{cfg.ID}, N: 1, R: 1, W: 1, Shards: shards}
	for _, lanes := range []int{1, shards + 1} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d, err := openDurability(cfg.DataDir, wal.SyncNone, nil)
				if err != nil {
					b.Fatal(err)
				}
				qn := quorum.NewNode(cfg.ID, qcfg)
				var route func(rec []byte) int
				if lanes > 1 {
					route = qn.ReplayDomain
				}
				d.setDomains(lanes)
				b.StartTimer()
				err = d.recover(qn, route)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if d.replayed < writers*perWriter {
					b.Fatalf("replayed %d records, want at least %d", d.replayed, writers*perWriter)
				}
				b.ReportMetric(float64(d.replayed), "records")
				qn.Close()
				d.Close()
				b.StartTimer()
			}
		})
	}
}
