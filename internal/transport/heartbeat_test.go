package transport

import (
	"testing"
	"time"

	"repro/internal/resilience"
)

// Tests of the heartbeat rule (tcpPeer.drain): a link sends a heartbeat at
// a tick only if it took nothing to send since the previous tick, or if it
// has gone rttSampleEvery ticks without one. Every frame that arrives is
// evidence to the receiver's detector, the peer's echo of a heartbeat
// included.

const hbInterval = 20 * time.Millisecond

// hbPair boots two TCP runtimes that share a detector, at hbInterval.
func hbPair(t *testing.T) (dir *resilience.Directory, ta, tb *TCP) {
	t.Helper()
	policy := &resilience.Policy{HeartbeatInterval: hbInterval}
	dir = resilience.NewDirectory(policy)
	ta, tb, _, _ = startTCPPair(t, dir, policy)
	return dir, ta, tb
}

// rttSamples counts the round trips t has measured to peer (up to the
// reservoir's 64): one per echo of its own heartbeats.
func rttSamples(t *TCP, peer string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if l := t.rtts[peer]; l != nil {
		return l.Count()
	}
	return 0
}

// watch runs for n heartbeat intervals, failing if either end of the pair
// suspects the other at any poll, and returns how many intervals passed.
func watch(t *testing.T, dir *resilience.Directory, ta, tb *TCP, n int) float64 {
	t.Helper()
	start := time.Now()
	for time.Since(start) < time.Duration(n)*hbInterval {
		if dir.Suspects("a", "b", ta.Now()) || dir.Suspects("b", "a", tb.Now()) {
			t.Fatalf("a peer is suspected on a live link (phi a→b %.2f, b→a %.2f)",
				dir.Phi("a", "b", ta.Now()), dir.Phi("b", "a", tb.Now()))
		}
		time.Sleep(hbInterval / 4)
	}
	return float64(time.Since(start)) / float64(hbInterval)
}

// An idle link pair carries one heartbeat and its echo per interval: each
// way at least one frame per interval, both ways about two, where a
// heartbeat each way at every tick would be four. Both ends keep
// measuring round trips: the end that only echoes sends its own heartbeat
// one interval in rttSampleEvery.
func TestIdleLinkHeartbeatsOncePerInterval(t *testing.T) {
	dir, ta, tb := hbPair(t)
	time.Sleep(10 * hbInterval) // the links are up
	a0, b0 := ta.Stats(), tb.Stats()
	rttA, rttB := rttSamples(ta, "b"), rttSamples(tb, "a")
	intervals := watch(t, dir, ta, tb, 50)
	a1, b1 := ta.Stats(), tb.Stats()
	toA, toB := a1.EnvelopesReceived-a0.EnvelopesReceived, b1.EnvelopesReceived-b0.EnvelopesReceived
	t.Logf("%.1f intervals: %d envelopes to a, %d to b; %d and %d new round trips",
		intervals, toA, toB, rttSamples(ta, "b")-rttA, rttSamples(tb, "a")-rttB)
	// A tick the scheduler delays past the next one is lost: allow one in ten.
	if min := 0.9*intervals - 1; float64(toA) < min || float64(toB) < min {
		t.Errorf("an idle link delivered %d and %d envelopes in %.1f intervals, want at least one per interval each way", toA, toB, intervals)
	}
	if max := 2.5 * intervals; float64(toA+toB) > max {
		t.Errorf("an idle link pair carried %d envelopes in %.1f intervals, want at most %.0f: one heartbeat and its echo per interval", toA+toB, intervals, max)
	}
	if rttSamples(ta, "b") == rttA || rttSamples(tb, "a") == rttB {
		t.Errorf("an end of an idle link measured no new round trip")
	}
}

// A busy link sends a heartbeat once in rttSampleEvery intervals: its
// frames are the receiver's evidence, and the one heartbeat keeps
// RTTQuantile taking new samples under load.
func TestBusyLinkHeartbeatsOncePerTenIntervals(t *testing.T) {
	dir, ta, tb := hbPair(t)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() { // a message each way every millisecond: a's echoMsg, b's echoReply
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			ta.Invoke("a", func(env Env) { env.Send("b", echoMsg{N: i}) })
		}
	}()
	defer func() { close(stop); <-done }()
	time.Sleep(10 * hbInterval) // the links are up and busy
	rttA, rttB := rttSamples(ta, "b"), rttSamples(tb, "a")
	intervals := watch(t, dir, ta, tb, 50)
	newA, newB := rttSamples(ta, "b")-rttA, rttSamples(tb, "a")-rttB
	t.Logf("%.1f busy intervals: %d and %d heartbeats echoed", intervals, newA, newB)
	// One per rttSampleEvery intervals, one more for the window's edges and
	// one for a tick the sender's sleep overran.
	if max := int(intervals)/rttSampleEvery + 2; newA > max || newB > max {
		t.Errorf("a busy link sent %d and %d heartbeats in %.1f intervals, want at most %d", newA, newB, intervals, max)
	}
	if newA == 0 || newB == 0 || ta.RTTQuantile("b", 0.5) <= 0 || tb.RTTQuantile("a", 0.5) <= 0 {
		t.Errorf("a busy link took %d and %d round-trip samples, want some each way", newA, newB)
	}
}

// A peer that goes silent is suspected within six heartbeat intervals of
// the moment it stops: phi passes 2 at 4.6 mean intervals of silence, the
// detector's mean is floored at the heartbeat interval, and an idle link's
// frames come about one interval apart each way.
func TestHeartbeatSilenceIsSuspectedWithinSixIntervals(t *testing.T) {
	dir, ta, tb := hbPair(t)
	time.Sleep(25 * hbInterval) // the detector's window holds idle intervals only
	tb.Close()
	gone := ta.Now()
	time.Sleep(2 * hbInterval) // frames b wrote before it closed are read
	if dir.Suspects("a", "b", gone) {
		t.Fatal("b was suspected before it went silent")
	}
	at := gone
	for !dir.Suspects("a", "b", at) && at < gone+time.Second {
		at += time.Millisecond
	}
	t.Logf("b suspected %v after it closed (%.1f intervals)", at-gone, float64(at-gone)/float64(hbInterval))
	if at-gone > 6*hbInterval {
		t.Errorf("b suspected %v after it closed, want within %v", at-gone, 6*hbInterval)
	}
}
