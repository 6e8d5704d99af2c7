package quorum

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/geo"
	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Deterministic sim coverage for the elasticity building blocks: the
// cursor-batched, token-bucketed pull stream with read gating, and the
// decommission drain ordering (hints fully flushed).
// The full membership protocol over real TCP is exercised in
// internal/server's elasticity tests.

// seedEntry fabricates one replicated version with a unique dot.
func seedEntry(i int, size int) clock.SiblingEntry[record] {
	v := make([]byte, size)
	for j := range v {
		v[j] = byte(i)
	}
	return clock.SiblingEntry[record]{
		DVV:   clock.DVV{Dot: clock.Dot{Node: "w", Counter: uint64(i + 1)}, Context: clock.Vector{}},
		Value: record{Value: v},
	}
}

func TestTransferPullStreamsRangeGatesReadsAndThrottles(t *testing.T) {
	// s3 pulls the full circle from s0: ~50 keys × ~160B against a
	// 2000B/s bucket with 500B batches, so the stream must be cut into
	// many cursor batches and the source must hit the throttle. Until
	// the range completes, s3's replica must refuse reads as NotReady.
	h := newHarness(t, 4, Config{
		N: 3, R: 2, W: 2,
		TransferRate:  2000,
		TransferBatch: 500,
	}, 5)
	byID := map[string]*Node{}
	for _, n := range h.nodes {
		byID[n.id] = n
	}
	src, dst := byID["s0"], byID["s3"]
	const nKeys = 50
	h.c.At(0, func() {
		for i := 0; i < nKeys; i++ {
			src.installEntry(0, fmt.Sprintf("xfer-%d", i), seedEntry(i, 128))
		}
		dst.beginCatchUp(h.c.ClientEnv("s3"), 1,
			[]TransferPull{{Source: "s0", Start: 0, End: 0}}) // (0,0] wraps: the whole circle
	})
	doneAt := time.Duration(-1)
	var watch func()
	watch = func() {
		if done, total := dst.CatchUpProgress(1); total == 1 && done == 1 {
			doneAt = h.c.Now()
			return
		}
		h.c.After(10*time.Millisecond, watch)
	}
	h.c.At(0, watch)
	gatedMidway := false
	h.c.At(200*time.Millisecond, func() {
		gatedMidway = dst.CatchingUp() && dst.gatedKey("xfer-0")
		// A replica read against a gated key must answer NotReady
		// instead of serving the partial copy.
		h.c.Send("client", "s3", replicaGet{ID: 999, Key: "xfer-0"})
	})
	h.c.Run(20 * time.Second)

	if doneAt < 0 {
		t.Fatal("catch-up never completed")
	}
	if !gatedMidway {
		t.Fatalf("s3 was not catching-up/gated at 200ms (done at %v); transfer finished too fast to gate", doneAt)
	}
	if dst.CatchingUp() || dst.gatedKey("xfer-0") {
		t.Fatal("gating still engaged after catch-up completed")
	}
	for i := 0; i < nKeys; i++ {
		vals := dst.LocalValues(fmt.Sprintf("xfer-%d", i))
		if len(vals) != 1 || len(vals[0]) != 128 {
			t.Fatalf("key xfer-%d did not transfer: %d values", i, len(vals))
		}
	}
	if got := dst.Transfer.RangesDone.Load(); got != 1 {
		t.Fatalf("RangesDone = %d, want 1", got)
	}
	if dst.Transfer.GatedReads.Load() == 0 {
		t.Fatal("gated replica served reads without counting a refusal")
	}
	if src.Transfer.ThrottleWaits.Load() == 0 {
		t.Fatal("source never throttled despite 8KB through a 2KB/s bucket")
	}
	if src.Transfer.BytesOut.Load() < 6000 || dst.Transfer.BytesIn.Load() < 6000 {
		t.Fatalf("transfer byte counters implausible: out=%d in=%d",
			src.Transfer.BytesOut.Load(), dst.Transfer.BytesIn.Load())
	}

	// Resume semantics: the completed range is journaled in xferDone, so a
	// window begun afresh for the same epoch is done at once, without a
	// pull — the restart path a killed joiner takes after WAL replay.
	resumed := false
	h.c.After(0, func() {
		dst.inbound = nil
		dst.gate.Store(nil)
		dst.beginCatchUp(h.c.ClientEnv("s3"), 1, []TransferPull{{Source: "s0", Start: 0, End: 0}})
		done, total := dst.CatchUpProgress(1)
		resumed = done == 1 && total == 1 && !dst.CatchingUp()
	})
	h.c.Run(h.c.Now() + time.Second)
	if !resumed {
		t.Fatal("re-begun epoch with journaled completions did not finish instantly")
	}
}

func TestDrainStopsMintingAndEmptiesHints(t *testing.T) {
	// Decommission ordering: after beginDrain a node's hinted-handoff
	// queues flush to their intended replicas even though the periodic
	// handoff timer (set to an hour) never fires — the drain tick does
	// the delivery. (A node names no write of its own to stop naming:
	// every dot is a client's, and the host refuses a draining node's
	// client writes, see server.TestDrainingNodeRefusesWrites.)
	h := newHarness(t, 6, Config{
		N: 3, R: 2, W: 3,
		Timeout:         100 * time.Millisecond,
		SloppyQuorum:    true,
		HandoffInterval: time.Hour,
	}, 9)
	byID := map[string]*Node{}
	for _, n := range h.nodes {
		byID[n.id] = n
	}
	key := "drain-key"
	prefs := h.nodes[0].PreferenceList(key)
	coord := prefs[0]
	victim := prefs[2]

	h.c.At(0, func() {
		rest := make([]string, 0, len(h.nodes))
		for _, n := range h.nodes {
			if n.id != victim {
				rest = append(rest, n.id)
			}
		}
		h.c.Partition(append(rest, "client"), []string{victim})
		byID[coord].coordinatePut(h.c.ClientEnv(coord), "client", clientPut{ID: 1, Key: key, Value: []byte("v")}, nil)
	})

	h.c.At(2*time.Second, func() {
		h.c.Heal()
		for _, n := range h.nodes {
			n.beginDrain(h.c.ClientEnv(n.id))
		}
	})
	h.c.Run(10 * time.Second)

	for _, n := range h.nodes {
		if got := n.PendingHints(); got != 0 {
			t.Fatalf("%s still holds %d hints after drain", n.id, got)
		}
		if !n.draining.Load() {
			t.Fatalf("%s lost its draining flag", n.id)
		}
	}
	vals := byID[victim].LocalValues(key)
	if len(vals) != 1 || string(vals[0]) != "v" {
		t.Fatalf("hinted write never reached %s during drain: %q", victim, vals)
	}
	var delivered uint64
	for _, n := range h.nodes {
		delivered += n.HintsDelivered
	}
	if delivered == 0 {
		t.Fatal("no hints delivered; the value arrived some other way")
	}
}

// TestEpochInstallsRaceOperations: the serial loops install 200 epochs,
// alternating an open transfer window and a settled one, while puts and
// gets run on every shard of every node. Each operation loads the
// installed epoch once, so under the race detector nothing may report,
// no operation may fail, and every acked put reads back after the last
// settle.
func TestEpochInstallsRaceOperations(t *testing.T) {
	ids := []string{"s0", "s1", "s2", "s3"}
	cur := ring.New(ids, ring.DefaultVirtualNodes)
	prev := ring.New(ids[:3], ring.DefaultVirtualNodes) // the window of s3's join
	l := transport.NewLoopback(transport.LoopbackConfig{Seed: 3})
	defer l.Close()
	nodes := make([]*Node, len(ids))
	for i, id := range ids {
		nodes[i] = NewNode(id, Config{Ring: ids, N: 3, R: 2, W: 2, Shards: 4, Placement: cur})
		l.AddNode(id, nodes[i])
	}
	cli := NewClient("cli")
	l.AddNode(cli.ID(), cli)

	keys := make([]string, 64)
	shards := map[int]bool{}
	for i := range keys {
		keys[i] = fmt.Sprintf("race-%d", i)
		shards[nodes[0].router.Shard(keys[i])] = true
	}
	if len(shards) != len(nodes[0].shards) {
		t.Fatalf("keys cover %d of %d shards", len(shards), len(nodes[0].shards))
	}

	var installing sync.WaitGroup
	for i, id := range ids {
		installing.Add(1)
		go func(n *Node, id string) {
			defer installing.Done()
			for seq := uint64(1); seq <= 200; seq++ {
				ep := ring.Epoch{Seq: seq, Ring: cur}
				if seq%2 == 1 {
					ep.Prev = prev
				}
				done := make(chan struct{})
				l.Invoke(id, func(transport.Env) { n.Install(ep); close(done) })
				<-done
				time.Sleep(time.Millisecond)
			}
		}(nodes[i], id)
	}
	installed := make(chan struct{})
	go func() { installing.Wait(); close(installed) }()

	read := func(r int) {
		gets := make(chan GetResult, len(keys))
		l.Invoke(cli.ID(), func(env transport.Env) {
			for i, k := range keys {
				cli.Get(env, ids[(i+1)%len(ids)], k, func(gr GetResult) { gets <- gr })
			}
		})
		for range keys {
			if gr := <-gets; gr.Err != nil || len(gr.Values) != 1 || string(gr.Values[0]) != fmt.Sprint(r) {
				t.Fatalf("round %d: get %s = %q (err %v), want [%d]", r, gr.Key, values(gr), gr.Err, r)
			}
		}
	}
	round := func(r int) {
		puts := make(chan PutResult, len(keys))
		l.Invoke(cli.ID(), func(env transport.Env) {
			for i, k := range keys {
				cli.Put(env, ids[i%len(ids)], k, []byte(fmt.Sprint(r)), func(pr PutResult) { puts <- pr })
			}
		})
		for range keys {
			if pr := <-puts; pr.Err != nil {
				t.Fatalf("round %d: put %s: %v", r, pr.Key, pr.Err)
			}
		}
		read(r)
	}
	r := 0
	for ; ; r++ {
		select {
		case <-installed:
		default:
			round(r)
			continue
		}
		break
	}
	if r < 3 {
		t.Fatalf("only %d rounds of operations overlapped the installs", r)
	}
	for _, n := range nodes {
		if ep := n.Epoch(); ep.Seq != 200 || ep.Prev != nil {
			t.Fatalf("%s ends at epoch %d (window open: %v), want the settled epoch 200", n.id, ep.Seq, ep.Prev != nil)
		}
	}
	read(r - 1) // the puts acked while epochs churned read back after the last settle
}

// TestPlannedOperationsRaceEpochsAndGate: the serial loops install 200
// epochs, alternating an open transfer window and a settled one, and
// publish a catch-up gate with each, up and down in turn, while puts and
// gets of this process's clients run through CoordinatePut and
// CoordinateGet on every shard of every node. Each operation is planned
// on its shard loop against the epoch and the gate it loads there, so
// under the race detector nothing may report, no operation may fail, and
// every acked put reads back after the last settle.
func TestPlannedOperationsRaceEpochsAndGate(t *testing.T) {
	ids := []string{"s0", "s1", "s2", "s3"}
	cur := ring.New(ids, ring.DefaultVirtualNodes)
	prev := ring.New(ids[:3], ring.DefaultVirtualNodes) // the window of s3's join
	l := transport.NewLoopback(transport.LoopbackConfig{Seed: 7})
	defer l.Close()
	nodes := make([]*Node, len(ids))
	for i, id := range ids {
		nodes[i] = NewNode(id, Config{Ring: ids, N: 3, R: 2, W: 2, Shards: 4, Placement: cur})
		l.AddNode(id, nodes[i])
	}
	keys := make([]string, 64)
	index := map[string]int{}
	shards := map[int]bool{}
	for i := range keys {
		keys[i] = fmt.Sprintf("plan-race-%d", i)
		index[keys[i]] = i
		shards[nodes[0].router.Shard(keys[i])] = true
	}
	if len(shards) != len(nodes[0].shards) {
		t.Fatalf("keys cover %d of %d shards", len(shards), len(nodes[0].shards))
	}
	// The gate pends a one-point arc no key hashes to: up, it turns every
	// plan to the owner, and no replica refuses a read of the keys.
	pull := TransferPull{Source: "s0", Start: 0, End: 1}

	var installing sync.WaitGroup
	for i, id := range ids {
		installing.Add(1)
		go func(n *Node, id string) {
			defer installing.Done()
			for seq := uint64(1); seq <= 200; seq++ {
				ep := ring.Epoch{Seq: seq, Ring: cur}
				if seq%2 == 1 {
					ep.Prev = prev
				}
				done := make(chan struct{})
				l.Invoke(id, func(transport.Env) {
					n.Install(ep)
					n.publishGate(&catchUp{seq: seq, ranges: []inRange{{TransferPull: pull, done: seq%2 == 0}}})
					close(done)
				})
				<-done
				time.Sleep(time.Millisecond)
			}
		}(nodes[i], id)
	}
	installed := make(chan struct{})
	go func() { installing.Wait(); close(installed) }()

	// on runs op for key i on its shard of node (i+off).
	on := func(i, off int, op func(n *Node, env transport.Env)) {
		n := nodes[(i+off)%len(nodes)]
		if !l.InvokeShard(n.id, n.router.Shard(keys[i]), func(env transport.Env) { op(n, env) }) {
			t.Fatalf("%s stopped", n.id)
		}
	}
	ctxs := make([]clock.Vector, len(keys)) // what each key's last put returned
	read := func(r int) {
		gets := make(chan GetResult, 2*len(keys))
		for i, k := range keys {
			on(i, 1, func(n *Node, env transport.Env) {
				n.CoordinateGet(env, k, geo.Strong, 0, func(_ transport.Env, gr GetResult) { gets <- gr })
			})
			on(i, 2, func(n *Node, env transport.Env) {
				n.CoordinateGet(env, k, geo.Bounded, 1000, func(_ transport.Env, gr GetResult) { gets <- gr })
			})
		}
		for range 2 * len(keys) {
			gr := <-gets
			if gr.Err != nil {
				t.Fatalf("round %d: %s get %s: %v", r, gr.Tier, gr.Key, gr.Err)
			}
			if gr.Tier == geo.Strong && (len(gr.Values) != 1 || string(gr.Values[0]) != fmt.Sprint(r)) {
				t.Fatalf("round %d: get %s = %q, want [%d]", r, gr.Key, values(gr), r)
			}
		}
	}
	round := func(r int) {
		puts := make(chan PutResult, len(keys))
		for i, k := range keys {
			v, ctx := []byte(fmt.Sprint(r)), ctxs[i]
			on(i, 0, func(n *Node, env transport.Env) {
				n.CoordinatePut(env, k, v, ctx, func(_ transport.Env, pr PutResult) { puts <- pr })
			})
		}
		for range keys {
			pr := <-puts
			if pr.Err != nil {
				t.Fatalf("round %d: put %s: %v", r, pr.Key, pr.Err)
			}
			ctxs[index[pr.Key]] = pr.Context
		}
		read(r)
	}
	r := 0
	for ; ; r++ {
		select {
		case <-installed:
		default:
			round(r)
			continue
		}
		break
	}
	if r < 3 {
		t.Fatalf("only %d rounds of operations overlapped the installs", r)
	}
	for _, n := range nodes {
		if ep := n.Epoch(); ep.Seq != 200 || ep.Prev != nil || n.CatchingUp() {
			t.Fatalf("%s ends at epoch %d (window open: %v, gate up: %v), want the settled epoch 200",
				n.id, ep.Seq, ep.Prev != nil, n.CatchingUp())
		}
	}
	read(r - 1)
}

// TestCatchUpGateRacesReplicaReads: the serial loop pulls eight ranges in
// small batches and publishes the gate as each lands, while replica reads
// check it on the goroutines that deliver them. The gate is one immutable
// value behind an atomic pointer, so under the race detector nothing may
// report, and the reads that came in time were refused.
func TestCatchUpGateRacesReplicaReads(t *testing.T) {
	ids := []string{"s0", "s1", "s2"}
	l := transport.NewLoopback(transport.LoopbackConfig{Seed: 5})
	defer l.Close()
	nodes := make([]*Node, len(ids))
	for i, id := range ids {
		nodes[i] = NewNode(id, Config{Ring: ids, N: 3, R: 2, W: 2, Shards: 4, TransferBatch: 512})
	}
	src, dst := nodes[0], nodes[2]
	const nKeys = 400
	for i := 0; i < nKeys; i++ {
		src.installEntry(0, fmt.Sprintf("gate-%d", i), seedEntry(i, 64))
	}
	for i, id := range ids {
		l.AddNode(id, nodes[i])
	}
	cli := NewClient("cli")
	l.AddNode(cli.ID(), cli)

	var pulls []TransferPull
	for i := uint64(0); i < 8; i++ {
		pulls = append(pulls, TransferPull{Source: "s0", Start: i << 61, End: (i + 1) << 61})
	}
	// A window that lands before any read comes in is pulled again, as
	// the next epoch's.
	id := uint64(0)
	for seq := uint64(1); dst.Transfer.GatedReads.Load() == 0; seq++ {
		if seq > 20 {
			t.Fatal("no read came in while the ranges were pulled, in 20 windows")
		}
		l.Invoke("s2", func(env transport.Env) { dst.beginCatchUp(env, seq, pulls) })
		for deadline := time.Now().Add(10 * time.Second); ; {
			if done, total := dst.CatchUpProgress(seq); total == len(pulls) && done == total {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the ranges never landed")
			}
			id++
			get := replicaGet{ID: id, Key: fmt.Sprintf("gate-%d", id%nKeys)}
			l.Invoke(cli.ID(), func(env transport.Env) { env.Send("s2", get) })
			time.Sleep(50 * time.Microsecond)
		}
	}
	if dst.CatchingUp() || dst.gatedKey("gate-0") {
		t.Fatal("the gate is still up after the last range landed")
	}
}

// TestOneDecodedContextIsSharedByEveryInstall: a put's context is decoded
// once and handed, in this process, to the coordinator and to every
// replica's install on every execution domain, while another goroutine
// reads it; then the contexts the puts and gets return are handed on the
// same way. Nothing writes into a vector once it is shared: under the
// race detector nothing may report, and the context still encodes to
// the bytes it was decoded from.
func TestOneDecodedContextIsSharedByEveryInstall(t *testing.T) {
	ids := []string{"s0", "s1", "s2"}
	l := transport.NewLoopback(transport.LoopbackConfig{Seed: 11})
	defer l.Close()
	nodes := make([]*Node, len(ids))
	for i, id := range ids {
		nodes[i] = NewNode(id, Config{Ring: ids, N: 3, R: 3, W: 3, Shards: 4})
		l.AddNode(id, nodes[i])
	}
	keys := make([]string, 32)
	index := map[string]int{}
	shards := map[int]bool{}
	for i := range keys {
		keys[i] = fmt.Sprintf("shared-ctx-%d", i)
		index[keys[i]] = i
		shards[nodes[0].router.Shard(keys[i])] = true
	}
	if len(shards) != len(nodes[0].shards) {
		t.Fatalf("keys cover %d of %d shards", len(shards), len(nodes[0].shards))
	}
	enc := wire.AppendVector(nil, clock.Vector{{ID: "c9", Counter: 5}, {ID: "s0", Counter: 3}, {ID: "s1", Counter: 8}})
	ctx := wire.NewReader(enc).Vector()

	stop := make(chan struct{})
	var reading sync.WaitGroup
	reading.Add(1)
	go func() {
		defer reading.Done()
		var buf []byte
		for {
			select {
			case <-stop:
				return
			default:
			}
			buf = wire.AppendVector(buf[:0], ctx)
			if ctx.Compare(clock.Vector{{ID: "s1", Counter: 9}}) != clock.Concurrent || ctx.Get("c9") != 5 {
				t.Error("the shared context read differently")
				return
			}
		}
	}()
	// on runs op for key i on its shard of node (i+off).
	on := func(i, off int, op func(n *Node, env transport.Env)) {
		n := nodes[(i+off)%len(nodes)]
		if !l.InvokeShard(n.id, n.router.Shard(keys[i]), func(env transport.Env) { op(n, env) }) {
			t.Fatalf("%s stopped", n.id)
		}
	}
	put := func(round int, ctxOf func(i int) clock.Vector) []clock.Vector {
		puts := make(chan PutResult, len(keys))
		for i, k := range keys {
			v, c := []byte(fmt.Sprint(round)), ctxOf(i)
			on(i, round, func(n *Node, env transport.Env) {
				n.CoordinatePut(env, k, v, c, func(_ transport.Env, pr PutResult) { puts <- pr })
			})
		}
		out := make([]clock.Vector, len(keys))
		for range keys {
			pr := <-puts
			if pr.Err != nil || !pr.Context.Descends(ctx) {
				t.Fatalf("round %d: put %s: %v, context %v", round, pr.Key, pr.Err, pr.Context)
			}
			out[index[pr.Key]] = pr.Context
		}
		return out
	}
	got := put(0, func(int) clock.Vector { return ctx })
	gets := make(chan GetResult, len(keys))
	for i, k := range keys {
		on(i, 1, func(n *Node, env transport.Env) {
			n.CoordinateGet(env, k, geo.Strong, 0, func(_ transport.Env, gr GetResult) { gets <- gr })
		})
	}
	for range keys {
		if gr := <-gets; gr.Err != nil || len(gr.Values) != 1 || !gr.Context.Descends(ctx) {
			t.Fatalf("get %s = %q, %v, context %v", gr.Key, values(gr), gr.Err, gr.Context)
		}
	}
	put(1, func(i int) clock.Vector { return got[i] })
	close(stop)
	reading.Wait()
	if again := wire.AppendVector(nil, ctx); !bytes.Equal(again, enc) {
		t.Fatalf("the shared context now encodes as % x, decoded from % x", again, enc)
	}
}
