package quorum

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/transport"
)

// harness wires a quorum store plus one client into a simulator.
type harness struct {
	c      *sim.Cluster
	nodes  []*Node
	client *Client
	env    sim.Env
	// onDeliver, when set, sees every message the simulator delivers, just
	// before its recipient does.
	onDeliver func(msg sim.Message)
}

// sizeOf is the simulator's delivery-time size hook, which is the one
// place it shows a delivered message to its host: the harness measures
// as the simulator would by itself and lets the test look.
func (h *harness) sizeOf(msg sim.Message) int {
	if h.onDeliver != nil {
		h.onDeliver(msg)
	}
	if s, ok := msg.(interface{ Size() int }); ok {
		return s.Size()
	}
	return 0
}

// node returns the store node called id.
func (h *harness) node(id string) *Node {
	for _, n := range h.nodes {
		if n.id == id {
			return n
		}
	}
	return nil
}

func newHarness(t *testing.T, nNodes int, cfg Config, seed int64) *harness {
	t.Helper()
	return newHarnessLatency(t, nNodes, cfg, seed, sim.Uniform(time.Millisecond, 5*time.Millisecond))
}

func newHarnessLatency(t *testing.T, nNodes int, cfg Config, seed int64, lat sim.LatencyModel) *harness {
	t.Helper()
	return newHarnessPerNode(t, nNodes, seed, lat, func(string) Config { return cfg })
}

// newHarnessWith builds a cluster whose per-node Config may differ (the
// geo tests give every node its own Zone).
func newHarnessWith(t *testing.T, nNodes int, seed int64, cfgFor func(id string) Config) *harness {
	t.Helper()
	return newHarnessPerNode(t, nNodes, seed, sim.Uniform(time.Millisecond, 5*time.Millisecond), cfgFor)
}

func newHarnessPerNode(t *testing.T, nNodes int, seed int64, lat sim.LatencyModel, cfgFor func(id string) Config) *harness {
	t.Helper()
	return newHarnessSim(t, nNodes, sim.Config{Seed: seed, Latency: lat}, cfgFor)
}

// newHarnessSim builds the cluster on a simulator configured by sc (its
// size hook is the harness's).
func newHarnessSim(t *testing.T, nNodes int, sc sim.Config, cfgFor func(id string) Config) *harness {
	t.Helper()
	h := &harness{}
	sc.SizeOf = h.sizeOf
	c := sim.New(sc)
	ring := make([]string, nNodes)
	for i := range ring {
		ring[i] = fmt.Sprintf("s%d", i)
	}
	nodes := make([]*Node, nNodes)
	for i, id := range ring {
		cfg := cfgFor(id)
		cfg.Ring = ring
		nodes[i] = NewNode(id, cfg)
		c.AddNode(id, nodes[i])
	}
	client := NewClient("client")
	c.AddNode("client", client)
	h.c, h.nodes, h.client, h.env = c, nodes, client, c.ClientEnv("client")
	return h
}

func (h *harness) anyNode() string { return h.nodes[0].id }

func TestWriteThenReadStrictQuorum(t *testing.T) {
	h := newHarness(t, 5, Config{N: 3, R: 2, W: 2}, 1)
	var got GetResult
	h.c.At(0, func() {
		h.client.Put(h.env, h.anyNode(), "k", []byte("v"), func(pr PutResult) {
			if pr.Err != nil {
				t.Errorf("put failed: %v", pr.Err)
			}
			h.client.Get(h.env, h.anyNode(), "k", func(gr GetResult) { got = gr })
		})
	})
	h.c.Run(5 * time.Second)
	if got.Err != nil {
		t.Fatalf("get failed: %v", got.Err)
	}
	if len(got.Values) != 1 || string(got.Values[0]) != "v" {
		t.Fatalf("values = %q", got.Values)
	}
	if got.Replicas < 2 {
		t.Fatalf("read used %d replicas, want >= R", got.Replicas)
	}
}

func TestReadYourWritesWithStrictQuorum(t *testing.T) {
	// R+W > N guarantees a read after an acknowledged write sees it.
	h := newHarness(t, 5, Config{N: 3, R: 2, W: 2}, 2)
	var results []string
	for i := 0; i < 10; i++ {
		i := i
		h.c.At(time.Duration(i)*200*time.Millisecond, func() {
			val := fmt.Sprintf("v%d", i)
			h.client.Put(h.env, h.anyNode(), "k", []byte(val), func(pr PutResult) {
				h.client.Get(h.env, h.anyNode(), "k", func(gr GetResult) {
					if len(gr.Values) == 1 {
						results = append(results, string(gr.Values[0]))
					} else {
						results = append(results, fmt.Sprintf("siblings:%d", len(gr.Values)))
					}
				})
			})
		})
	}
	h.c.Run(10 * time.Second)
	if len(results) != 10 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r != fmt.Sprintf("v%d", i) {
			t.Fatalf("read %d = %q, want v%d (strict quorum must be RYW)", i, r, i)
		}
	}
}

func TestMissingKeyReturnsEmpty(t *testing.T) {
	h := newHarness(t, 3, Config{N: 3, R: 2, W: 2}, 3)
	var got GetResult
	done := false
	h.c.At(0, func() {
		h.client.Get(h.env, h.anyNode(), "ghost", func(gr GetResult) { got = gr; done = true })
	})
	h.c.Run(2 * time.Second)
	if !done {
		t.Fatal("get never completed")
	}
	if got.Err != nil || len(got.Values) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestDeleteHidesValue(t *testing.T) {
	h := newHarness(t, 3, Config{N: 3, R: 2, W: 2}, 4)
	var got GetResult
	h.c.At(0, func() {
		h.client.Put(h.env, h.anyNode(), "k", []byte("v"), func(PutResult) {
			h.client.Delete(h.env, h.anyNode(), "k", func(PutResult) {
				h.client.Get(h.env, h.anyNode(), "k", func(gr GetResult) { got = gr })
			})
		})
	})
	h.c.Run(5 * time.Second)
	if len(got.Values) != 0 {
		t.Fatalf("deleted key returned %q", got.Values)
	}
}

func TestConcurrentBlindWritesCreateSiblings(t *testing.T) {
	h := newHarness(t, 5, Config{N: 3, R: 3, W: 3}, 5)
	c2 := NewClient("client2")
	h.c.AddNode("client2", c2)
	env2 := h.c.ClientEnv("client2")
	var got GetResult
	h.c.At(0, func() {
		h.client.PutBlind(h.env, h.anyNode(), "k", []byte("a"), nil)
		c2.PutBlind(env2, h.anyNode(), "k", []byte("b"), nil)
	})
	h.c.At(time.Second, func() {
		h.client.Get(h.env, h.anyNode(), "k", func(gr GetResult) { got = gr })
	})
	h.c.Run(5 * time.Second)
	if len(got.Values) != 2 {
		t.Fatalf("siblings = %q, want both concurrent writes", got.Values)
	}
}

func TestContextualWriteResolvesSiblings(t *testing.T) {
	h := newHarness(t, 5, Config{N: 3, R: 3, W: 3}, 6)
	c2 := NewClient("client2")
	h.c.AddNode("client2", c2)
	env2 := h.c.ClientEnv("client2")
	var final GetResult
	h.c.At(0, func() {
		h.client.PutBlind(h.env, h.anyNode(), "k", []byte("a"), nil)
		c2.PutBlind(env2, h.anyNode(), "k", []byte("b"), nil)
	})
	h.c.At(time.Second, func() {
		// Read (absorbing both siblings' context), then overwrite.
		h.client.Get(h.env, h.anyNode(), "k", func(GetResult) {
			h.client.Put(h.env, h.anyNode(), "k", []byte("resolved"), func(PutResult) {
				h.client.Get(h.env, h.anyNode(), "k", func(gr GetResult) { final = gr })
			})
		})
	})
	h.c.Run(5 * time.Second)
	if len(final.Values) != 1 || string(final.Values[0]) != "resolved" {
		t.Fatalf("final = %q, want single resolved value", final.Values)
	}
}

func TestWeakQuorumCanReadStale(t *testing.T) {
	// R=1, W=1, N=3: a read right after a write may hit a replica the
	// write has not reached. Staleness needs a latency tail (a laggard
	// replica), as in the PBS model: 10% of messages take 20–80ms.
	lat := sim.Bimodal(
		sim.Uniform(500*time.Microsecond, 2*time.Millisecond),
		sim.Uniform(20*time.Millisecond, 80*time.Millisecond),
		0.10,
	)
	h := newHarnessLatency(t, 5, Config{N: 3, R: 1, W: 1}, 7, lat)
	stale := 0
	const trials = 50
	for i := 0; i < trials; i++ {
		i := i
		key := fmt.Sprintf("k%d", i)
		h.c.At(time.Duration(i)*100*time.Millisecond, func() {
			h.client.Put(h.env, h.anyNode(), key, []byte("v"), func(pr PutResult) {
				h.client.Get(h.env, h.anyNode(), key, func(gr GetResult) {
					if len(gr.Values) == 0 {
						stale++
					}
				})
			})
		})
	}
	h.c.Run(20 * time.Second)
	if stale == 0 {
		t.Fatal("R=W=1 never produced a stale read in 50 trials; staleness model broken")
	}
	if stale == trials {
		t.Fatal("every read was stale; write propagation broken")
	}
}

func TestReadRepairConvergesReplicas(t *testing.T) {
	h := newHarness(t, 5, Config{N: 3, R: 3, W: 1, ReadRepair: true}, 8)
	key := "k"
	var prefs []string
	h.c.At(0, func() {
		prefs = h.nodes[0].PreferenceList(key)
		h.client.Put(h.env, h.anyNode(), key, []byte("v"), nil)
	})
	// Read with R=3 triggers repair of any replica that missed the write.
	h.c.At(time.Second, func() {
		h.client.Get(h.env, h.anyNode(), key, nil)
	})
	h.c.Run(5 * time.Second)
	byID := map[string]*Node{}
	for _, n := range h.nodes {
		byID[n.id] = n
	}
	for _, rep := range prefs {
		vals := byID[rep].LocalValues(key)
		if len(vals) != 1 || string(vals[0]) != "v" {
			t.Fatalf("replica %s not repaired: %q", rep, vals)
		}
	}
}

func TestStrictQuorumUnavailableUnderPartition(t *testing.T) {
	h := newHarness(t, 5, Config{N: 3, R: 2, W: 2, Timeout: 200 * time.Millisecond}, 9)
	key := "k"
	var prefs []string
	var putErr error
	putDone := false
	h.c.At(0, func() {
		prefs = h.nodes[0].PreferenceList(key)
		// Cut the coordinator (first preference) off from everyone else,
		// including the client? No — client must reach it, so partition
		// the other replicas away.
		rest := []string{"client", prefs[0]}
		var other []string
		for _, n := range h.c.Nodes() {
			if !slices.Contains(rest, n) {
				other = append(other, n)
			}
		}
		h.c.Partition(rest, other)
		h.client.Put(h.env, prefs[0], key, []byte("v"), func(pr PutResult) {
			putErr = pr.Err
			putDone = true
		})
	})
	h.c.Run(5 * time.Second)
	if !putDone {
		t.Fatal("put never completed")
	}
	if putErr == nil {
		t.Fatal("W=2 write succeeded with all peer replicas partitioned away")
	}
}

func TestSloppyQuorumStaysAvailableAndHandsOff(t *testing.T) {
	h := newHarness(t, 6, Config{
		N: 3, R: 2, W: 2,
		Timeout:         100 * time.Millisecond,
		SloppyQuorum:    true,
		HandoffInterval: 100 * time.Millisecond,
	}, 10)
	key := "k"
	byID := map[string]*Node{}
	for _, n := range h.nodes {
		byID[n.id] = n
	}
	prefs := h.nodes[0].PreferenceList(key)
	var put PutResult
	putDone := false
	h.c.At(0, func() {
		// Crash the non-coordinator members of the preference list.
		for _, rep := range prefs[1:] {
			h.c.Crash(rep)
		}
		h.client.Put(h.env, prefs[0], key, []byte("v"), func(pr PutResult) {
			put = pr
			putDone = true
		})
	})
	// Restart the crashed replicas; handoff should deliver.
	h.c.At(2*time.Second, func() {
		for _, rep := range prefs[1:] {
			h.c.Restart(rep)
		}
	})
	h.c.Run(10 * time.Second)
	if !putDone {
		t.Fatal("put never completed")
	}
	if put.Err != nil {
		t.Fatalf("sloppy quorum write failed: %v", put.Err)
	}
	if !put.Sloppy {
		t.Fatal("write did not report fallback use")
	}
	// After restart + handoff, the intended replicas hold the value.
	for _, rep := range prefs[1:] {
		vals := byID[rep].LocalValues(key)
		if len(vals) != 1 || string(vals[0]) != "v" {
			t.Fatalf("handoff did not reach %s: %q", rep, vals)
		}
	}
}

func TestForwardingFromNonPreferenceNode(t *testing.T) {
	// Send to a node not in the key's preference list; it must forward
	// and the operation must still succeed end-to-end.
	h := newHarness(t, 8, Config{N: 3, R: 2, W: 2}, 11)
	key := "k"
	var outside string
	var got GetResult
	h.c.At(0, func() {
		prefs := h.nodes[0].PreferenceList(key)
		for _, n := range h.nodes {
			if !slices.Contains(prefs, n.id) {
				outside = n.id
				break
			}
		}
		if outside == "" {
			t.Error("no node outside the preference list; enlarge the ring")
			return
		}
		h.client.Put(h.env, outside, key, []byte("v"), func(pr PutResult) {
			if pr.Err != nil {
				t.Errorf("forwarded put failed: %v", pr.Err)
			}
			h.client.Get(h.env, outside, key, func(gr GetResult) { got = gr })
		})
	})
	h.c.Run(5 * time.Second)
	if len(got.Values) != 1 || string(got.Values[0]) != "v" {
		t.Fatalf("forwarded read = %q", got.Values)
	}
}

func TestPreferenceListProperties(t *testing.T) {
	ring := []string{"a", "b", "c", "d", "e"}
	n := NewNode("a", Config{Ring: ring, N: 3, R: 2, W: 2})
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		pl := n.PreferenceList(key)
		if len(pl) != 3 {
			t.Fatalf("preference list size %d", len(pl))
		}
		dup := map[string]bool{}
		for _, id := range pl {
			if dup[id] {
				t.Fatalf("duplicate replica in %v", pl)
			}
			dup[id] = true
			seen[id] = true
		}
		// Determinism.
		pl2 := n.PreferenceList(key)
		for j := range pl {
			if pl[j] != pl2[j] {
				t.Fatal("preference list not deterministic")
			}
		}
	}
	if len(seen) != len(ring) {
		t.Fatalf("keys map to only %d/%d nodes", len(seen), len(ring))
	}
}

func TestConfigValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	ring := []string{"a", "b", "c"}
	mustPanic("N>ring", func() { NewNode("a", Config{Ring: ring, N: 4, R: 1, W: 1}) })
	mustPanic("N=0", func() { NewNode("a", Config{Ring: ring, N: 0, R: 1, W: 1}) })
	mustPanic("R>N", func() { NewNode("a", Config{Ring: ring, N: 2, R: 3, W: 1}) })
	mustPanic("W=0", func() { NewNode("a", Config{Ring: ring, N: 2, R: 1, W: 0}) })
	mustPanic("N>distinct members", func() { NewNode("a", Config{Ring: []string{"a", "b", "a"}, N: 3, R: 1, W: 1}) })
	wide := make([]string, 33)
	for i := range wide {
		wide[i] = fmt.Sprintf("n%d", i)
	}
	mustPanic("N>32", func() { NewNode("n0", Config{Ring: wide, N: 33, R: 1, W: 1}) })
}

func TestHintedHandoffDrainsAfterPartitionHeal(t *testing.T) {
	// A write while one intended replica is partitioned away must reach
	// that replica after heal via hinted handoff — not anti-entropy,
	// which is disabled here — and the hint queue must fully drain.
	// W=N so the isolated replica's ack cannot be substituted by the
	// remaining intendeds and the coordinator must engage a fallback.
	h := newHarness(t, 6, Config{
		N: 3, R: 2, W: 3,
		Timeout:         100 * time.Millisecond,
		SloppyQuorum:    true,
		HandoffInterval: 100 * time.Millisecond,
	}, 12)
	key := "k"
	byID := map[string]*Node{}
	for _, n := range h.nodes {
		byID[n.id] = n
	}
	prefs := h.nodes[0].PreferenceList(key)
	victim := prefs[2]
	var put PutResult
	putDone := false
	h.c.At(0, func() {
		// Isolate one intended replica; the rest of the cluster (and the
		// client) stays connected.
		rest := make([]string, 0, len(h.nodes))
		for _, n := range h.nodes {
			if n.id != victim {
				rest = append(rest, n.id)
			}
		}
		h.c.Partition(append(rest, "client"), []string{victim})
		h.client.Put(h.env, prefs[0], key, []byte("v"), func(pr PutResult) {
			put = pr
			putDone = true
		})
	})
	h.c.At(2*time.Second, func() { h.c.Heal() })
	h.c.Run(10 * time.Second)

	if !putDone {
		t.Fatal("put never completed")
	}
	if put.Err != nil {
		t.Fatalf("sloppy quorum write failed during partition: %v", put.Err)
	}
	vals := byID[victim].LocalValues(key)
	if len(vals) != 1 || string(vals[0]) != "v" {
		t.Fatalf("isolated replica %s did not converge after heal: %q", victim, vals)
	}
	var delivered, pending uint64
	for _, n := range h.nodes {
		delivered += n.HintsDelivered
		pending += uint64(n.PendingHints())
		if n.AESyncs != 0 {
			t.Fatalf("%s ran %d anti-entropy syncs; convergence must come from handoff", n.id, n.AESyncs)
		}
	}
	if delivered == 0 {
		t.Fatal("no hints were delivered; the value arrived some other way")
	}
	if pending != 0 {
		t.Fatalf("%d hints still queued after heal; the queue must drain", pending)
	}
}

// A write is named by the request of the client that made it: a put
// without a request id has no dot, and is refused.
func TestPutWithoutRequestIDIsRefused(t *testing.T) {
	n := NewNode("s0", fixtureConfig())
	var got PutResult
	n.coordinatePut(sinkEnv{}, "cli", clientPut{Key: "k", Value: []byte("v")}, func(_ sim.Env, r PutResult) { got = r })
	if got.Err == nil {
		t.Fatal("a put without a request id was accepted")
	}
	if vals := n.LocalValues("k"); len(vals) != 0 {
		t.Fatalf("the refused put stored %q", vals)
	}
}

// An answered operation leaves no timer behind: its client cancels the
// time-out it armed when the answer arrives, and its coordinator cancels
// the operation's time-out and retry timer when it forgets it. On a
// cluster that arms no periodic timer (no anti-entropy, no sloppy quorum,
// and a heartbeat an hour apart), no timer fires once the operations are
// answered. The first window of the row with a resilience policy ends
// before the 400ms retry timers of its operations would fire.
func TestAnsweredOperationsLeaveNoTimer(t *testing.T) {
	const ops = 20
	for _, tc := range []struct {
		name   string
		cfg    Config
		window time.Duration
	}{
		{"no policy", Config{N: 3, R: 2, W: 2}, time.Second},
		{"resilience policy", Config{N: 3, R: 2, W: 2, Resilience: &resilience.Policy{HeartbeatInterval: time.Hour}}, 300 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 3, tc.cfg, 7)
			answered := 0
			var next func(i int)
			next = func(i int) {
				if i == ops {
					return
				}
				key := fmt.Sprintf("k%d", i%4)
				if i%2 == 0 {
					h.client.Put(h.env, h.anyNode(), key, []byte("v"), func(pr PutResult) {
						if pr.Err != nil {
							t.Errorf("put %s: %v", key, pr.Err)
						}
						answered++
						next(i + 1)
					})
					return
				}
				h.client.Get(h.env, h.anyNode(), key, func(gr GetResult) {
					if gr.Err != nil {
						t.Errorf("get %s: %v", key, gr.Err)
					}
					answered++
					next(i + 1)
				})
			}
			h.c.At(0, func() { next(0) })
			h.c.Run(tc.window)
			if answered != ops {
				t.Fatalf("%d of %d operations answered within %v", answered, ops, tc.window)
			}
			fired := h.c.Stats().TimersFired
			h.c.Run(4 * time.Second)
			if grew := h.c.Stats().TimersFired - fired; grew != 0 {
				t.Fatalf("%d timers fired on an idle cluster after %d answered operations, want 0", grew, ops)
			}
		})
	}
}

// TestReplyStartsAnOperationOnItsShard: a reply to a client in the node's
// process that starts another operation on the same shard, from inside the
// answer step, steps into a buffer of its own: onWrite and onRead take the
// shard's writeSteps and readSteps while they carry out a step's steps.
// Each operation answers once with the right values, and the steps of the
// outer one that come before its answer (forget, or park for a read that
// still waits for a replica, and the timer cancels) have run.
func TestReplyStartsAnOperationOnItsShard(t *testing.T) {
	h := newHarness(t, 3, Config{N: 3, R: 2, W: 2, ReadRepair: true}, 5)
	n := h.nodes[0]
	env := h.c.ClientEnv(n.id)
	sh := n.shards[0] // one shard: both keys are on it
	var answers []string
	put := func(key, value string, then func(transport.Env)) {
		n.CoordinatePut(env, key, []byte(value), nil, func(env transport.Env, pr PutResult) {
			answers = append(answers, fmt.Sprintf("put %s err=%v", key, pr.Err))
			if then != nil {
				if len(sh.writes) != 0 {
					t.Errorf("put %s answered with %d writes pending, want its own forgotten", key, len(sh.writes))
				}
				then(env)
			}
		})
	}
	get := func(env transport.Env, key string, then func(transport.Env)) {
		n.CoordinateGet(env, key, geo.Strong, 0, func(env transport.Env, gr GetResult) {
			answers = append(answers, fmt.Sprintf("get %s=%s err=%v", key, strings.Join(values(gr), ","), gr.Err))
			if then != nil {
				// A read without a policy asks all three and answers on two:
				// it parked for the third before it answered.
				if len(sh.reads) != 0 || len(sh.repairs) != 1 {
					t.Errorf("get %s answered with %d reads in flight and %d parked, want none and itself", key, len(sh.reads), len(sh.repairs))
				}
				then(env)
			}
		})
	}
	h.c.At(0, func() {
		put("a", "1", func(env transport.Env) { put("b", "2", nil) })
	})
	h.c.At(time.Second, func() {
		get(env, "a", func(env transport.Env) { get(env, "b", nil) })
	})
	h.c.Run(2 * time.Second)
	want := []string{"put a err=<nil>", "put b err=<nil>", "get a=1 err=<nil>", "get b=2 err=<nil>"}
	if !slices.Equal(answers, want) {
		t.Fatalf("answers %q, want %q", answers, want)
	}
	if len(sh.writes) != 0 || len(sh.reads) != 0 || len(sh.repairs) != 0 {
		t.Fatalf("%d writes, %d reads and %d parked reads left, want none", len(sh.writes), len(sh.reads), len(sh.repairs))
	}
	fired := h.c.Stats().TimersFired
	h.c.Run(4 * time.Second)
	if grew := h.c.Stats().TimersFired - fired; grew != 0 {
		t.Fatalf("%d timers fired on an idle cluster, want 0: an answered operation left its timer armed", grew)
	}
}
