package quorum

import (
	"strings"
	"testing"
	"time"

	"repro/internal/ring"
	"repro/internal/sim"
)

// Deterministic coverage of the membership protocol's resends; the
// chaos package's membership nemesis runs it under every fault.

// elasticHarness runs four placement-ring nodes s0..s3 and boots a joiner
// s4 that owns nothing yet.
func elasticHarness(t *testing.T, seed int64) (h *harness, joiner *Node) {
	t.Helper()
	ids := []string{"s0", "s1", "s2", "s3"}
	h = newHarnessPerNode(t, len(ids), seed, sim.Uniform(time.Millisecond, 5*time.Millisecond), func(string) Config {
		return Config{N: 3, R: 2, W: 2, Placement: ring.New(ids, ring.DefaultVirtualNodes)}
	})
	joiner = NewNode("s4", Config{Ring: ids, N: 3, R: 2, W: 2, Placement: ring.New(ids, ring.DefaultVirtualNodes)})
	h.c.AddNode("s4", joiner)
	h.nodes = append(h.nodes, joiner)
	return h, joiner
}

// A member that misses the broadcast of a join epoch gets it again from
// the coordinator's membership timer and acks it, so the join completes
// and the coordinator takes the next change.
func TestLostBroadcastDoesNotWedgeTheCoordinator(t *testing.T) {
	h, joiner := elasticHarness(t, 3)
	coord := h.node("s0")
	acked := false
	h.c.At(100*time.Millisecond, func() {
		h.c.BlockLink("s0", "s2") // the broadcast to s2 is lost
		if err := coord.Join(h.c.ClientEnv("s0"), "s4", "", "", func() { acked = true }); err != nil {
			t.Fatal(err)
		}
		h.c.UnblockLink("s0", "s2")
	})
	h.c.Run(10 * time.Second)
	if !acked {
		t.Fatal("the join was never acked by every member")
	}
	for _, n := range h.nodes {
		if ep, st := n.State(); ep.Seq != 1 || ep.Prev != nil || st != StateOK {
			t.Fatalf("%s is at epoch %d (window open: %v), %s; want the settled join epoch, ok", n.id, ep.Seq, ep.Prev != nil, st)
		}
	}
	if _, total := joiner.CatchUpProgress(1); total == 0 {
		t.Fatal("the joiner settled without pulling a range")
	}
	h.c.At(h.c.Now(), func() {
		err := coord.Join(h.c.ClientEnv("s0"), "s5", "", "", nil)
		if err != nil && strings.Contains(err.Error(), "in progress") {
			t.Errorf("the coordinator still refuses the next join: %v", err)
		}
	})
	h.c.Run(h.c.Now() + time.Millisecond)
}

// A joiner whose pulls a member answers with the open join epoch, while
// another member has yet to ack it, waits for the coordinator's release.
func TestJoinerPullsOnlyOnceEveryMemberHasAcked(t *testing.T) {
	h, joiner := elasticHarness(t, 4)
	coord := h.node("s0")
	h.c.At(100*time.Millisecond, func() {
		h.c.BlockLink("s0", "s3") // s3 hears nothing of the join for 2.5 s
		if err := coord.Join(h.c.ClientEnv("s0"), "s4", "", "", nil); err != nil {
			t.Fatal(err)
		}
	})
	h.c.At(2600*time.Millisecond, func() { h.c.UnblockLink("s0", "s3") })
	for at := 200 * time.Millisecond; at < 2600*time.Millisecond; at += 50 * time.Millisecond {
		h.c.At(at, func() {
			if _, total := joiner.CatchUpProgress(1); total > 0 && h.node("s3").Epoch().Seq < 1 {
				t.Fatalf("the joiner pulls at %v, before s3 installed the join epoch", h.c.Now())
			}
		})
	}
	h.c.Run(10 * time.Second)
	if _, st := joiner.State(); st != StateOK {
		t.Fatalf("the joiner is %s after the heal, want ok", st)
	}
}

// A coordinator that crashes in the ack phase and comes back without its
// membership state never releases the joiner. The joiner pulls the epoch
// from every member while its window is open, and once each has answered
// with the join epoch it knows what the release would have told it.
func TestJoinerCompletesWhenItsCoordinatorForgetsTheJoin(t *testing.T) {
	h, joiner := elasticHarness(t, 5)
	coord := h.node("s0")
	h.c.At(100*time.Millisecond, func() {
		if err := coord.Join(h.c.ClientEnv("s0"), "s4", "", "", nil); err != nil {
			t.Fatal(err)
		}
		h.c.Crash("s0") // before any ack is back
		coord.mb = membership{}
	})
	h.c.At(400*time.Millisecond, func() { h.c.Restart("s0") })
	h.c.Run(10 * time.Second)
	for _, n := range h.nodes {
		if ep, st := n.State(); ep.Seq != 1 || ep.Prev != nil || st != StateOK {
			t.Fatalf("%s is at epoch %d (window open: %v), %s; want the settled join epoch, ok", n.id, ep.Seq, ep.Prev != nil, st)
		}
	}
	if _, total := joiner.CatchUpProgress(1); total == 0 {
		t.Fatal("the joiner settled without pulling a range")
	}
}
