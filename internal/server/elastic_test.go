package server

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/ring"
)

// Chaos coverage for live elasticity over real TCP: scale-out under
// load with zero lost acked writes, graceful decommission with drain
// ordering, and a joiner killed mid-transfer that resumes from its WAL
// instead of restarting the stream.

// waitRingState polls a node's ring-status until it reports the given
// state, failing the test at the deadline.
func waitRingState(t *testing.T, c *Client, id, want string, d time.Duration) Status {
	t.Helper()
	deadline := time.Now().Add(d)
	var last Status
	var lastErr error
	for time.Now().Before(deadline) {
		rs, _, err := c.Status()
		if err == nil {
			last = rs
			if rs.State == want {
				return rs
			}
		}
		lastErr = err
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s never reached state %q (last %+v, err %v)", id, want, last, lastErr)
	return Status{}
}

// movedFraction samples how much primary ownership differs between two
// rings.
func movedFraction(before, after *ring.Ring, samples int) float64 {
	moved := 0
	for i := 0; i < samples; i++ {
		k := fmt.Sprintf("moved-sample-%d", i)
		if before.Owner(k) != after.Owner(k) {
			moved++
		}
	}
	return float64(moved) / float64(samples)
}

// TestScaleOutUnderLoadZeroLostAckedWrites doubles a 3-node quorum
// cluster to 6, one live join at a time, while clients keep writing and
// reading. Every acknowledged write must survive, the recorded history
// must stay per-client monotonic, each join must actually stream arcs
// (not restart from empty), and consistent hashing's movement bound
// must hold: one join moves ~1/n of primary ownership, and 3->6 moves
// about half.
func TestScaleOutUnderLoadZeroLostAckedWrites(t *testing.T) {
	cl := bootCluster(t, spec{seed: 2000, heartbeat: fastBeat, durable: true, ckpt: 200 * time.Millisecond})
	srvs := make(map[string]*Server, 6)
	for _, s := range cl.srvs {
		srvs[s.ID()] = s
	}

	rec := &recorder{start: time.Now()}
	versionOf := func(v string) int {
		n, _ := strconv.Atoi(strings.TrimPrefix(v, "v"))
		return n
	}
	acked := make(map[string]string)
	put := func(c *Client, client, key, val string) {
		start := rec.now()
		err := c.Put(key, []byte(val))
		op := check.Op{Kind: check.Write, Key: key, Value: val, OK: err == nil, Client: client, Start: start, End: rec.now()}
		if err != nil {
			op.Maybe = true
		} else {
			acked[key] = val
		}
		rec.add(op)
	}
	get := func(c *Client, client, key string) {
		start := rec.now()
		v, found, err := c.Get(key)
		if err != nil {
			return
		}
		rec.add(check.Op{Kind: check.Read, Key: key, Value: string(v), OK: found, Client: client, Start: start, End: rec.now()})
	}

	alice := dialNode(t, srvs["node0"], "alice")
	bob := dialNode(t, srvs["node1"], "bob")

	// Seed: alice owns keys lk00..lk11, version 1.
	const loadKeys = 12
	ver := make([]int, loadKeys)
	for i := 0; i < loadKeys; i++ {
		ver[i] = 1
		put(alice, "alice", fmt.Sprintf("lk%02d", i), "v1")
	}

	ringBefore := srvs["node0"].Ring()
	var ringAfterFirst *ring.Ring

	ctl := dialNode(t, srvs["node0"], "ctl")
	for idx := 3; idx <= 5; idx++ {
		id := fmt.Sprintf("node%d", idx)
		js := cl.join(int64(3000+idx), "")
		srvs[id] = js

		if err := ctl.AddNode(id, js.Addr()); err != nil {
			t.Fatalf("add-node %s: %v", id, err)
		}
		// Load during catch-up: alice bumps versions, bob reads — the
		// dual-apply window and read gating are live right here.
		jc := dialNode(t, js, "join-"+id)
		deadline := time.Now().Add(60 * time.Second)
		for {
			rs, _, err := jc.Status()
			if err == nil && rs.State == stateOK {
				if len(rs.Members) != idx+1 {
					t.Fatalf("%s settled with %d members, want %d", id, len(rs.Members), idx+1)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never caught up (last status %+v, err %v)", id, rs, err)
			}
			k := idx % loadKeys
			ver[k]++
			put(alice, "alice", fmt.Sprintf("lk%02d", k), fmt.Sprintf("v%d", ver[k]))
			get(bob, "bob", fmt.Sprintf("lk%02d", k))
		}
		if js.qnode.Transfer.RangesDone.Load() == 0 {
			t.Fatalf("%s reported ok without streaming a single range", id)
		}
		if js.qnode.Transfer.BytesIn.Load() == 0 {
			t.Fatalf("%s streamed ranges but no bytes", id)
		}
		if idx == 3 {
			ringAfterFirst = srvs["node0"].Ring()
		}
	}

	// A few more writes through the grown cluster, via a joiner. Carol
	// uses her own keys — she holds no causal context over alice's.
	carol := dialNode(t, srvs["node5"], "carol")
	for i := 0; i < loadKeys; i++ {
		put(carol, "carol", fmt.Sprintf("ck%02d", i), "v1")
	}

	// Zero lost acked writes: every acknowledged (key, value) readable —
	// through a joiner and through an original member.
	deadline := time.Now().Add(20 * time.Second)
	for name, c := range map[string]*Client{"node5": carol, "node0": alice} {
		for key, want := range acked {
			for {
				v, found, err := c.Get(key)
				if err == nil && found && string(v) == want {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("acked write lost after scale-out (via %s): %s = %q/%v/%v, want %q",
						name, key, v, found, err, want)
				}
				time.Sleep(50 * time.Millisecond)
			}
		}
	}
	if !check.MonotonicPerClient(rec.h, versionOf) {
		t.Fatalf("history violates per-client monotonicity across scale-out:\n%v", rec.h)
	}

	// Movement bounds: one join moves ~1/4 of primary ownership (3->4),
	// the whole 3->6 growth about half. Wide bands absorb vnode variance.
	if f := movedFraction(ringBefore, ringAfterFirst, 2000); f < 0.10 || f > 0.45 {
		t.Fatalf("single join moved %.0f%% of primary ownership, want ~25%%", 100*f)
	}
	if f := movedFraction(ringBefore, srvs["node0"].Ring(), 2000); f < 0.30 || f > 0.70 {
		t.Fatalf("3->6 growth moved %.0f%% of primary ownership, want ~50%%", 100*f)
	}
	// Every node agrees on the final epoch (3 joins = 3 epochs).
	for id, s := range srvs {
		ep := s.qnode.Epoch()
		if ep.Seq != 3 || ep.Ring.Size() != 6 {
			t.Fatalf("%s at epoch %d with %d members, want 3/6", id, ep.Seq, ep.Ring.Size())
		}
	}
}

// TestDecommissionDrainsHintsAndRedirects scales a 4-node cluster in by
// one: the leaver first accumulates hinted-handoff load (a peer was
// down during writes), then decommissions — the drain must flush every
// hint and freeze dot minting before ownership transfers, the node must
// end "left" with survivors holding every acked key, and any further
// client traffic to it must get the typed NotOwner redirect.
func TestDecommissionDrainsHintsAndRedirects(t *testing.T) {
	cl := bootCluster(t, spec{n: 4, seed: 2000, heartbeat: fastBeat, durable: true, ckpt: -1})
	srvs := cl.srvs

	acked := make(map[string]string)
	c0 := dialNode(t, srvs[0], "cli0")
	for i := 0; i < 10; i++ {
		k, v := fmt.Sprintf("pre%02d", i), fmt.Sprintf("val%d", i)
		if err := c0.Put(k, []byte(v)); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
		acked[k] = v
	}

	// Manufacture hints: with node1 down, sloppy-quorum writes hint its
	// share onto the stand-ins (node3 among them).
	cl.stop(1)
	for i := 0; i < 12; i++ {
		k, v := fmt.Sprintf("hint%02d", i), fmt.Sprintf("hv%d", i)
		if err := c0.Put(k, []byte(v)); err != nil {
			continue // a timed-out write is a Maybe, not acked
		}
		acked[k] = v
	}
	cl.restart(1)

	// Decommission node3. The drain (hint flush) runs before ownership
	// moves; "left" means every gainer acked its last range.
	c3 := dialNode(t, srvs[3], "decom")
	if err := c3.Decommission(); err != nil {
		t.Fatalf("decommission: %v", err)
	}
	// From the drain on, the node refuses writes.
	var noe *NotOwnerError
	if err := c3.Put("during-drain", []byte("x")); !errors.As(err, &noe) {
		t.Fatalf("put through the decommissioned node3 = %v, want a NotOwnerError", err)
	}
	left := waitRingState(t, c3, "node3", stateLeft, 60*time.Second)
	if left.PendingHints != 0 {
		t.Fatalf("node3 left with %d hints still queued", left.PendingHints)
	}
	if left.Epoch != 1 {
		t.Fatalf("leave epoch = %d, want 1", left.Epoch)
	}

	// The left node redirects instead of serving stale ownership.
	err := c3.Put("post-leave", []byte("x"))
	if !errors.As(err, &noe) {
		t.Fatalf("put to left node returned %v, want NotOwnerError", err)
	}
	if noe.State != stateLeft || noe.Epoch != 1 {
		t.Fatalf("redirect carried %+v, want state=left epoch=1", noe)
	}
	if _, _, err := c3.Get("pre00"); !errors.As(err, &noe) {
		t.Fatalf("get on left node returned %v, want NotOwnerError", err)
	}

	// Survivors: node3 out of the ring everywhere, every acked key
	// readable (the hints node3 held must have reached their homes).
	for i, s := range srvs[:3] {
		members := s.Ring().Members()
		for _, m := range members {
			if m == "node3" {
				t.Fatalf("node%d still lists node3 in its ring: %v", i, members)
			}
		}
	}
	c1 := dialNode(t, srvs[1], "cli1")
	deadline := time.Now().Add(20 * time.Second)
	for key, want := range acked {
		for {
			v, found, err := c1.Get(key)
			if err == nil && found && string(v) == want {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("acked write lost after decommission: %s = %q/%v/%v, want %q", key, v, found, err, want)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
}

// TestJoinerKilledMidTransferResumes kills a joiner partway through its
// arc stream and restarts it from its data dir (without the join flag,
// exactly what `ecctl restart` does). The restarted node must learn the
// open epoch from a peer, resume the transfer — skipping the ranges its
// WAL already journaled complete — and finish catch-up with zero lost
// acked writes.
func TestJoinerKilledMidTransferResumes(t *testing.T) {
	cl := bootCluster(t, spec{seed: 2000, heartbeat: fastBeat, durable: true, ckpt: 200 * time.Millisecond,
		config: func(c *Config) {
			// Slow the stream so the kill lands mid-transfer: ~150KB of
			// data behind a 24KB/s bucket in 2KB batches.
			c.TransferRate = 24 << 10
			c.TransferBatch = 2 << 10
		}})
	srvs := cl.srvs

	acked := make(map[string]string)
	c0 := dialNode(t, srvs[0], "cli0")
	pad := strings.Repeat("x", 480)
	for i := 0; i < 300; i++ {
		k, v := fmt.Sprintf("bulk%03d", i), fmt.Sprintf("val%03d-%s", i, pad)
		if err := c0.Put(k, []byte(v)); err != nil {
			t.Fatalf("seed put %s: %v", k, err)
		}
		acked[k] = v
	}

	js := cl.join(4001, "")
	if err := c0.AddNode("node3", js.Addr()); err != nil {
		t.Fatalf("add-node: %v", err)
	}

	// Wait for journaled progress (some ranges done, not all), write a
	// few more keys into the open window, then kill the joiner.
	jc := dialNode(t, js, "watch")
	deadline := time.Now().Add(60 * time.Second)
	var mid Status
	for {
		rs, _, err := jc.Status()
		if err == nil && rs.State == stateOK {
			t.Fatal("transfer finished before the kill; lower TransferRate")
		}
		if err == nil && rs.TransferDone >= 2 {
			mid = rs
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("joiner made no transfer progress (last %+v, err %v)", rs, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i := 0; i < 8; i++ {
		k, v := fmt.Sprintf("during%d", i), fmt.Sprintf("dv%d", i)
		if err := c0.Put(k, []byte(v)); err == nil {
			acked[k] = v
		}
	}
	jc.Close()
	cl.stop(3)
	t.Logf("killed joiner at %d/%d ranges", mid.TransferDone, mid.TransferTotal)

	// Restart from the same data dir WITHOUT Joining — the epoch comes
	// back from a peer's ring pull, completed ranges from the WAL.
	js2 := cl.restart(3)
	if js2.dur.Replayed() == 0 && js2.dur.CheckpointSeq() == 0 {
		t.Fatal("restarted joiner recovered nothing from disk")
	}

	// The restarted node boots at epoch 0 and learns the open epoch from
	// a peer's ring pull — wait for it to install AND finish catch-up.
	jc2 := dialNode(t, js2, "watch2")
	var final Status
	resumeDeadline := time.Now().Add(90 * time.Second)
	for {
		rs, _, err := jc2.Status()
		if err == nil && rs.Epoch == 1 && rs.State == stateOK {
			final = rs
			break
		}
		if time.Now().After(resumeDeadline) {
			t.Fatalf("restarted joiner never finished catch-up (last %+v, err %v)", rs, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if len(final.Members) != 4 {
		t.Fatalf("joiner settled at %+v, want 4 members", final)
	}
	// Resume, not restart: the live process must have pulled fewer ranges
	// than the whole window (its WAL already held >= 2 completions).
	if live := js2.qnode.Transfer.RangesDone.Load(); final.TransferTotal > 0 && live >= uint64(final.TransferTotal) {
		t.Fatalf("restarted joiner re-pulled all %d ranges (live=%d); WAL resume did not engage", final.TransferTotal, live)
	}

	// Zero lost acked writes, served through the resumed joiner.
	readDeadline := time.Now().Add(30 * time.Second)
	for key, want := range acked {
		for {
			v, found, err := jc2.Get(key)
			if err == nil && found && string(v) == want {
				break
			}
			if time.Now().After(readDeadline) {
				t.Fatalf("acked write lost across joiner kill-restart: %s = %q/%v/%v, want %q", key, v, found, err, want)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
}
