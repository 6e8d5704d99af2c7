package quorum

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/resilience"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Tests of digest reads (coordinateGet, onAnswer, pendingRead.merge) and
// of the parked read-repair state. Every value these tests write is
// non-empty, so an entry that is not a tombstone and has no value is one
// a digest elided.

// readTraffic is what a test saw delivered on the read path.
type readTraffic struct {
	fullAsks, digestAsks       int // replicaGet, replicaDigest
	fullAnswers, digestAnswers int // replicaGetResp, replicaDigestResp
	refusals                   int // replicaNotReady
	repairs                    int // replicaPut with Repair set
}

// watch installs the invariants every digest test runs under, and counts
// read traffic at the simulator's delivery hook. A digest answer carries
// dots and nothing else, so no version without its value can come of
// one: no entry without a value is ever handed to installEntry, carried
// by a replicaPut (which is also how a hint arrives) or by a batch of any
// stream (handoff included), or returned to a client.
func watch(t *testing.T, h *harness) *readTraffic {
	t.Helper()
	elided := func(e clock.SiblingEntry[record]) bool {
		return !e.Value.Deleted && len(e.Value.Value) == 0
	}
	for _, n := range h.nodes {
		n := n
		n.installHook = func(key string, e clock.SiblingEntry[record]) {
			if elided(e) {
				t.Errorf("%s: installEntry(%q) was handed an elided entry %v", n.id, key, e.DVV)
			}
		}
	}
	tr := &readTraffic{}
	h.onDeliver = func(msg sim.Message) {
		switch m := msg.(type) {
		case replicaGet:
			tr.fullAsks++
		case replicaDigest:
			tr.digestAsks++
		case replicaGetResp:
			tr.fullAnswers++
			for _, e := range m.Entries {
				if elided(e) {
					t.Errorf("full answer %d carries an entry without its value", m.ID)
				}
			}
		case replicaDigestResp:
			tr.digestAnswers++
		case replicaNotReady:
			tr.refusals++
		case replicaPut:
			if m.Repair {
				tr.repairs++
			}
			if elided(m.Entry) {
				t.Errorf("replicaPut(%q, hint=%q, repair=%v) carries an elided entry", m.Key, m.Hint, m.Repair)
			}
		case shipBatch:
			for _, ae := range m.Entries {
				for _, e := range ae.Entries {
					if elided(e) {
						t.Errorf("shipBatch(kind %d, %q) carries an elided entry", m.Stream.Kind, ae.Key)
					}
				}
			}
		case getResp:
			for _, v := range m.Values {
				if len(v) == 0 {
					t.Errorf("a client was answered an empty value")
				}
			}
		}
	}
	return tr
}

// entryAt is a version of node's own minting: dot (node, ctr), having
// seen ctx.
func entryAt(node string, ctr uint64, ctx clock.Vector, val string) clock.SiblingEntry[record] {
	if ctx == nil {
		ctx = clock.Vector{}
	}
	return clock.SiblingEntry[record]{
		DVV:   clock.DVV{Dot: clock.Dot{Node: node, Counter: ctr}, Context: ctx},
		Value: record{Value: []byte(val)},
	}
}

// outsider returns a node that is not in key's preference list.
func (h *harness) outsider(key string) string {
	prefs := h.nodes[0].PreferenceList(key)
	for _, n := range h.nodes {
		if !slices.Contains(prefs, n.id) {
			return n.id
		}
	}
	return ""
}

func values(gr GetResult) []string {
	out := make([]string, len(gr.Values))
	for i, v := range gr.Values {
		out[i] = string(v)
	}
	return out
}

// TestAgreeingReplicasSendOneValue: a coordinator that holds a replica
// asks itself for the value and the others for clocks, so a get over
// replicas that agree moves exactly one value-bearing answer; a
// coordinator outside the preference list asks everyone in full, as
// reads always did.
func TestAgreeingReplicasSendOneValue(t *testing.T) {
	for _, tc := range []struct {
		name                       string
		inside                     bool
		fullAnswers, digestAnswers int
	}{
		{"coordinator in the preference list", true, 1, 2},
		{"coordinator outside it", false, 3, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 5, Config{N: 3, R: 2, W: 3, ReadRepair: true}, 21)
			tr := watch(t, h)
			key := "k"
			coord := h.nodes[0].PreferenceList(key)[1]
			if !tc.inside {
				coord = h.outsider(key)
			}
			var got GetResult
			h.c.At(0, func() { h.client.Put(h.env, coord, key, []byte("v"), nil) })
			h.c.At(time.Second, func() {
				*tr = readTraffic{}
				h.client.Get(h.env, coord, key, func(gr GetResult) { got = gr })
			})
			h.c.Run(3 * time.Second)
			if got.Err != nil || len(got.Values) != 1 || string(got.Values[0]) != "v" {
				t.Fatalf("get = %q err=%v", got.Values, got.Err)
			}
			if tr.fullAnswers != tc.fullAnswers || tr.digestAnswers != tc.digestAnswers {
				t.Fatalf("answers delivered: %d with values, %d digests; want %d and %d",
					tr.fullAnswers, tr.digestAnswers, tc.fullAnswers, tc.digestAnswers)
			}
			if tr.fullAsks+tr.digestAsks != 3 {
				t.Fatalf("%d replicaGets delivered, want one per replica", tr.fullAsks+tr.digestAsks)
			}
			for _, n := range h.nodes {
				if n.ReadRepairsSent != 0 {
					t.Fatalf("%s sent %d read repairs over agreeing replicas", n.id, n.ReadRepairsSent)
				}
			}
		})
	}
}

// TestReadAsksTheReplicasItNeeds: with a resilience policy a read asks R
// replicas, not N. A coordinator that holds a replica asks its own in
// full and R−1 peers for digests, so an R=1 read there asks nobody else;
// one outside the preference list asks R replicas in full. With every
// answer in, nothing is parked for background repair.
func TestReadAsksTheReplicasItNeeds(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		inside               bool
		r                    int // 0: the configured R=2
		fullAsks, digestAsks int
	}{
		{"coordinator in the preference list", true, 0, 1, 1},
		{"an R=1 read there", true, 1, 1, 0},
		{"coordinator outside it", false, 0, 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pol := resilience.DefaultPolicy()
			h := newHarness(t, 5, Config{N: 3, R: 2, W: 3, ReadRepair: true, SloppyQuorum: true,
				Resilience: pol, Directory: resilience.NewDirectory(pol)}, 30)
			tr := watch(t, h)
			key := "k"
			coord := h.nodes[0].PreferenceList(key)[1]
			if !tc.inside {
				coord = h.outsider(key)
			}
			var got GetResult
			h.c.At(0, func() { h.client.Put(h.env, coord, key, []byte("v"), nil) })
			h.c.At(time.Second, func() {
				*tr = readTraffic{}
				h.client.GetR(h.env, coord, key, tc.r, func(gr GetResult) { got = gr })
			})
			h.c.Run(3 * time.Second)
			if got.Err != nil || len(got.Values) != 1 || string(got.Values[0]) != "v" {
				t.Fatalf("get = %q err=%v", values(got), got.Err)
			}
			if tr.fullAsks != tc.fullAsks || tr.digestAsks != tc.digestAsks {
				t.Fatalf("asks delivered: %d in full, %d digests; want %d and %d", tr.fullAsks, tr.digestAsks, tc.fullAsks, tc.digestAsks)
			}
			for _, n := range h.nodes {
				if h := n.ReadHedges.Load(); h != 0 {
					t.Fatalf("%s hedged %d reads with every replica answering", n.id, h)
				}
				for i, sh := range n.shards {
					if len(sh.repairs) != 0 {
						t.Fatalf("%s shard %d parks %d repairs", n.id, i, len(sh.repairs))
					}
				}
			}
		})
	}
}

// TestHedgeAsksTheNextReplicaWhenAnAnswerIsLate: the first peer a read
// asks stops answering its coordinator, which does not suspect it yet.
// Each get asks its own replica and that peer, and after the hedge delay
// (HedgeMinDelay: the shard has no round trips to estimate from yet) the
// third replica, whose digest completes the read. Every get completes
// within the hedge delay and two link round trips (the client's and the
// hedge's), well inside the retry time-out and the read deadline, and
// each is hedged once.
func TestHedgeAsksTheNextReplicaWhenAnAnswerIsLate(t *testing.T) {
	const link = 2 * time.Millisecond
	pol := resilience.DefaultPolicy()
	dir := resilience.NewDirectory(pol)
	counters := resilience.NewCounters()
	h := newHarnessSim(t, 3, sim.Config{Seed: 29, Latency: sim.Fixed(link), OnDeliver: dir.Observe}, func(string) Config {
		return Config{N: 3, R: 2, W: 3, Resilience: pol, Directory: dir, Counters: counters}
	})
	tr := watch(t, h)
	key := "k"
	prefs := h.nodes[0].PreferenceList(key)
	coord, slow := prefs[0], prefs[1]
	h.c.At(0, func() { h.client.Put(h.env, coord, key, []byte("v"), nil) })
	const gets = 5
	blockAt := time.Second
	h.c.At(blockAt, func() {
		h.c.BlockLink(slow, coord)
		*tr = readTraffic{}
	})
	var took []time.Duration
	for i := 0; i < gets; i++ {
		at := blockAt + 10*time.Millisecond + time.Duration(i)*20*time.Millisecond
		h.c.At(at, func() {
			if dir.Suspects(coord, slow, at) {
				t.Fatalf("set-up: %s suspects %s at %v", coord, slow, at)
			}
			h.client.Get(h.env, coord, key, func(gr GetResult) {
				if gr.Err != nil || len(gr.Values) != 1 || string(gr.Values[0]) != "v" {
					t.Errorf("get = %q err=%v", values(gr), gr.Err)
				}
				took = append(took, h.c.Now()-at)
			})
		})
	}
	h.c.Run(blockAt + time.Second)
	if len(took) != gets {
		t.Fatalf("%d of %d gets answered", len(took), gets)
	}
	bound := pol.HedgeMinDelay + 2*(2*link)
	for i, d := range took {
		if d > bound {
			t.Errorf("get %d took %v, want within %v (retry time-out %v, read deadline %v)",
				i, d, bound, pol.RetryTimeout, h.nodes[0].cfg.Timeout)
		}
	}
	hedges := uint64(0)
	for _, n := range h.nodes {
		hedges += n.ReadHedges.Load()
	}
	if hedges != gets || counters.M.Get(resilience.CounterHedges) != gets {
		t.Fatalf("%d hedges on the nodes, %d counted; want one per get, %d", hedges, counters.M.Get(resilience.CounterHedges), gets)
	}
	if tr.fullAsks != gets || tr.digestAsks != 2*gets {
		t.Fatalf("asks delivered: %d in full, %d digests; want per get its own, the silent peer's and the hedge's", tr.fullAsks, tr.digestAsks)
	}
}

// TestForwardedGetIsHedgedOnce: a client with a resilience policy sends
// its gets to a coordinator whose first peer answers it slowly, past the
// hedge delay but inside the retry time-out. The coordinator hedges each
// read to the third replica, and that is the only hedge: the client,
// which cannot see which replica is late, would fail a silent
// coordinator over but never duplicates a get to a second one.
func TestForwardedGetIsHedgedOnce(t *testing.T) {
	const link, slowLink = 2 * time.Millisecond, 300 * time.Millisecond
	pol := resilience.DefaultPolicy()
	dir := resilience.NewDirectory(pol)
	counters := resilience.NewCounters()
	var coord, slow string
	lat := sim.LatencyFunc(func(from, to string, _ *rand.Rand) (time.Duration, bool) {
		if from == slow && to == coord {
			return slowLink, true
		}
		return link, true
	})
	h := newHarnessSim(t, 3, sim.Config{Seed: 29, Latency: lat, OnDeliver: dir.Observe}, func(string) Config {
		return Config{N: 3, R: 2, W: 3, Resilience: pol, Directory: dir, Counters: counters}
	})
	key := "k"
	prefs := h.nodes[0].PreferenceList(key)
	coord = prefs[0]
	// The client's next coordinator would be the third replica, whose
	// reads have no slow link to hedge around.
	h.client.Nodes = []string{coord, prefs[2], prefs[1]}
	h.client.Policy, h.client.Counters, h.client.Directory = pol, counters, dir
	h.c.At(0, func() { h.client.Put(h.env, coord, key, []byte("v"), nil) })
	const gets = 5
	start := time.Second
	h.c.At(start, func() { slow = prefs[1] })
	answered := 0
	for i := 0; i < gets; i++ {
		h.c.At(start+time.Duration(i)*20*time.Millisecond, func() {
			h.client.Get(h.env, coord, key, func(gr GetResult) {
				if gr.Err != nil || len(gr.Values) != 1 || string(gr.Values[0]) != "v" {
					t.Errorf("get = %q err=%v", values(gr), gr.Err)
				}
				answered++
			})
		})
	}
	h.c.Run(start + time.Second)
	if answered != gets {
		t.Fatalf("%d of %d gets answered", answered, gets)
	}
	if got := counters.M.Get(resilience.CounterHedges); got != gets {
		t.Fatalf("%d hedges counted (%s); want one per get, %d", got, counters, gets)
	}
}

// TestLaggingCoordinatorReasksAndIsRepaired: the coordinator's own
// replica missed the newest write. The digests name a dot its answer
// does not cover, so it asks again in full, the client sees the newest
// acknowledged write, and read repair brings the coordinator up to date.
func TestLaggingCoordinatorReasksAndIsRepaired(t *testing.T) {
	h := newHarness(t, 5, Config{N: 3, R: 2, W: 2, ReadRepair: true}, 22)
	tr := watch(t, h)
	key := "k"
	prefs := h.nodes[0].PreferenceList(key)
	lagger, writer := prefs[0], prefs[1]
	var got GetResult
	h.c.At(0, func() { h.client.Put(h.env, writer, key, []byte("old"), nil) })
	h.c.At(time.Second, func() {
		// The second write reaches prefs[1] and prefs[2] only.
		h.c.BlockLink(writer, lagger)
		h.client.Put(h.env, writer, key, []byte("new"), func(pr PutResult) {
			if pr.Err != nil {
				t.Errorf("put: %v", pr.Err)
			}
		})
	})
	h.c.At(2*time.Second, func() {
		h.c.UnblockLink(writer, lagger)
		if v := h.node(lagger).LocalValues(key); len(v) != 1 || string(v[0]) != "old" {
			t.Fatalf("set-up: the lagging replica holds %q, want [old]", v)
		}
		*tr = readTraffic{}
		h.client.Get(h.env, lagger, key, func(gr GetResult) { got = gr })
	})
	h.c.Run(4 * time.Second)
	if got.Err != nil || len(got.Values) != 1 || string(got.Values[0]) != "new" {
		t.Fatalf("get through the lagging coordinator = %q err=%v, want [new]", values(got), got.Err)
	}
	if tr.digestAsks != 2 || tr.fullAsks < 2 || tr.fullAsks > 3 {
		t.Fatalf("asks delivered: %d in full, %d digests; want its own plus one or two re-asks, and 2", tr.fullAsks, tr.digestAsks)
	}
	if v := h.node(lagger).LocalValues(key); len(v) != 1 || string(v[0]) != "new" {
		t.Fatalf("read repair left the coordinator with %q, want [new]", v)
	}
}

// TestSiblingOrderIsAFunctionOfTheSeed: two concurrent versions held by
// different replicas both come back, and in the same order on every run
// of one seed: answers merge in preference-list order, not in the order
// a map yields them.
func TestSiblingOrderIsAFunctionOfTheSeed(t *testing.T) {
	var first []string
	for run := 0; run < 50; run++ {
		h := newHarness(t, 5, Config{N: 3, R: 3, W: 1}, 23)
		tr := watch(t, h)
		key := "k"
		prefs := h.nodes[0].PreferenceList(key)
		h.node(prefs[0]).installEntry(0, key, entryAt("x", 1, nil, "from-x"))
		h.node(prefs[2]).installEntry(0, key, entryAt("y", 1, nil, "from-y"))
		var got GetResult
		h.c.At(0, func() { h.client.Get(h.env, prefs[0], key, func(gr GetResult) { got = gr }) })
		h.c.Run(2 * time.Second)
		if got.Err != nil || len(got.Values) != 2 {
			t.Fatalf("run %d: get = %q err=%v, want both siblings", run, values(got), got.Err)
		}
		if tr.fullAnswers != 2 {
			t.Fatalf("run %d: %d answers with values, want the coordinator's and the re-asked sibling holder's", run, tr.fullAnswers)
		}
		if run == 0 {
			first = values(got)
			if first[0] != "from-x" || first[1] != "from-y" {
				t.Fatalf("siblings came back as %q, want preference-list order", first)
			}
			continue
		}
		if v := values(got); v[0] != first[0] || v[1] != first[1] {
			t.Fatalf("run %d returned %q, run 0 returned %q", run, v, first)
		}
	}
}

// slowNode is a latency model in which every message to or from one node
// takes slow and every other message fast; with copies > 1 each message
// between store nodes is also delivered that many times.
type slowNode struct {
	node       string
	fast, slow time.Duration
	copies     int
}

func (m slowNode) Sample(from, to string, _ *rand.Rand) (time.Duration, bool) {
	if from == m.node || to == m.node {
		return m.slow, true
	}
	return m.fast, true
}

func (m slowNode) Copies(from, to string, _ *rand.Rand) int {
	if from == "client" || to == "client" {
		return 1
	}
	return m.copies
}

// TestLateDigestDrivesBackgroundRepair: the replica that missed the write
// is also the slow one, so its digest arrives after the read returned.
// It is compared by its dots and repaired from the values the quorum
// carried; nothing it elided goes anywhere (watch). Every message between
// replicas is delivered twice: a duplicate of an early answer must not use
// up the wait for the late one, which is how the parent lost this repair.
func TestLateDigestDrivesBackgroundRepair(t *testing.T) {
	key := "k"
	ring := NewNode("s0", Config{Ring: []string{"s0", "s1", "s2", "s3", "s4"}, N: 3, R: 2, W: 2})
	prefs := ring.PreferenceList(key)
	late := prefs[2]
	h := newHarnessLatency(t, 5, Config{N: 3, R: 2, W: 2, ReadRepair: true}, 24,
		slowNode{node: late, fast: time.Millisecond, slow: 40 * time.Millisecond, copies: 2})
	tr := watch(t, h)
	for _, rep := range prefs[:2] {
		h.node(rep).installEntry(0, key, entryAt("x", 1, nil, "v"))
	}
	var got GetResult
	var gotAt time.Duration
	h.c.At(0, func() {
		h.client.Get(h.env, prefs[0], key, func(gr GetResult) { got, gotAt = gr, h.c.Now() })
	})
	h.c.Run(time.Second)
	if got.Err != nil || len(got.Values) != 1 || string(got.Values[0]) != "v" {
		t.Fatalf("get = %q err=%v", values(got), got.Err)
	}
	if gotAt >= 40*time.Millisecond {
		t.Fatalf("the read returned at %v: it waited for the slow replica", gotAt)
	}
	if tr.digestAnswers == 0 {
		t.Fatal("no digest was delivered: the test exercises nothing")
	}
	if v := h.node(late).LocalValues(key); len(v) != 1 || string(v[0]) != "v" {
		t.Fatalf("the late replica holds %q after its digest arrived, want [v]", v)
	}
	for _, n := range h.nodes {
		for i, sh := range n.shards {
			if len(sh.repairs) != 0 {
				t.Fatalf("%s shard %d still parks %d repairs", n.id, i, len(sh.repairs))
			}
		}
	}
}

// TestFallbackReaderAnswersADigestReadFromItsHints: with a replica
// suspected, the fallback that holds a hinted write for it is read too.
// Its digest names the hinted version, the only copy newer than what the
// replicas hold; the re-ask fetches it and repair goes to the replicas,
// never to the fallback.
func TestFallbackReaderAnswersADigestReadFromItsHints(t *testing.T) {
	pol := resilience.DefaultPolicy()
	dir := resilience.NewDirectory(pol)
	h := newHarness(t, 6, Config{
		N: 3, R: 3, W: 2, ReadRepair: true, SloppyQuorum: true,
		HandoffInterval: time.Hour, Resilience: pol, Directory: dir,
	}, 25)
	tr := watch(t, h)
	key := "k"
	prefs, fallbacks := h.nodes[0].cfg.placement(h.nodes[0].epoch.Load(), key)
	coord, down, fb := prefs[0], prefs[2], fallbacks[0]
	old := entryAt("x", 1, nil, "old")
	hinted := entryAt("x", 2, clock.Vector{{ID: "x", Counter: 1}}, "hinted")
	for _, rep := range prefs[:2] {
		h.node(rep).installEntry(0, key, old)
	}
	h.node(fb).storeHint(down, key, hinted)
	dir.Observe(down, coord, 0) // heard once, then silence: suspected by the time of the read
	var got GetResult
	h.c.At(0, func() { h.c.Crash(down) })
	h.c.At(30*time.Second, func() {
		if !dir.Suspects(coord, down, h.c.Now()) {
			t.Fatal("set-up: the crashed replica is not suspected")
		}
		h.client.Get(h.env, coord, key, func(gr GetResult) { got = gr })
	})
	h.c.Run(32 * time.Second)
	if got.Err != nil || len(got.Values) != 1 || string(got.Values[0]) != "hinted" {
		t.Fatalf("get = %q err=%v, want the hinted write", values(got), got.Err)
	}
	if got.Replicas != 3 {
		t.Fatalf("the read counted %d answers, want 3 (two replicas and the fallback)", got.Replicas)
	}
	if tr.fullAnswers != 2 {
		t.Fatalf("%d answers with values, want the coordinator's and the re-asked fallback's", tr.fullAnswers)
	}
	for _, rep := range prefs[:2] {
		if v := h.node(rep).LocalValues(key); len(v) != 1 || string(v[0]) != "hinted" {
			t.Fatalf("replica %s holds %q after read repair, want [hinted]", rep, v)
		}
	}
	if v := h.node(fb).LocalValues(key); len(v) != 0 {
		t.Fatalf("read repair stranded %q on the fallback", v)
	}
}

// TestNotReadyReplicaUnderDigestRead: a catching-up replica's refusal
// does not count toward R, digest or not; the next node of the walk is
// asked in its place. When the refusing replica is the coordinator's own,
// no answer carries a value and the read completes through the re-ask.
func TestNotReadyReplicaUnderDigestRead(t *testing.T) {
	for _, tc := range []struct {
		name        string
		gated       int // index into the preference list
		fullAnswers int
	}{
		{"another replica is catching up", 2, 1},
		{"the coordinator's own replica is catching up", 0, 3}, // all three digests name a version nobody sent
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A placement ring, with no transfer window open, is what has a
			// read walk on past a refusing replica.
			placement := ring.New([]string{"s0", "s1", "s2", "s3", "s4"}, ring.DefaultVirtualNodes)
			h := newHarness(t, 5, Config{N: 3, R: 3, W: 2, Placement: placement}, 26)
			tr := watch(t, h)
			key := "k"
			prefs, fallbacks := h.nodes[0].cfg.placement(h.nodes[0].epoch.Load(), key)
			gated := h.node(prefs[tc.gated])
			// The whole circle is still to be pulled: every key is gated.
			gated.gate.Store(&gate{seq: 1, total: 1, pending: []TransferPull{{Source: "nobody"}}})
			for _, id := range append(append([]string{}, prefs...), fallbacks[0]) {
				if id != gated.id {
					h.node(id).installEntry(0, key, entryAt("x", 1, nil, "v"))
				}
			}
			var got GetResult
			h.c.At(0, func() { h.client.Get(h.env, prefs[0], key, func(gr GetResult) { got = gr }) })
			h.c.Run(2 * time.Second)
			if got.Err != nil || len(got.Values) != 1 || string(got.Values[0]) != "v" {
				t.Fatalf("get = %q err=%v", values(got), got.Err)
			}
			if got.Replicas != 3 {
				t.Fatalf("the read counted %d answers, want 3", got.Replicas)
			}
			if gated.Transfer.GatedReads.Load() == 0 {
				t.Fatal("the catching-up replica never refused")
			}
			if tr.fullAnswers != tc.fullAnswers {
				t.Fatalf("%d answers with values, want %d", tr.fullAnswers, tc.fullAnswers)
			}
		})
	}
}

// TestGetROneReturnsOnTheFirstAnswer: the per-request R override still
// means the first answer, whoever gives it. Over many seeds that is
// sometimes the coordinator's own replica, whose values end the read
// there, and sometimes a digest, which costs the re-ask; either way one
// answer is counted and the value comes back.
func TestGetROneReturnsOnTheFirstAnswer(t *testing.T) {
	ownFirst, digestFirst := 0, 0
	for seed := int64(100); seed < 130; seed++ {
		h := newHarness(t, 5, Config{N: 3, R: 2, W: 3}, seed)
		tr := watch(t, h)
		key := "k"
		coord := h.nodes[0].PreferenceList(key)[0]
		var got GetResult
		h.c.At(0, func() { h.client.Put(h.env, coord, key, []byte("v"), nil) })
		h.c.At(time.Second, func() {
			*tr = readTraffic{}
			h.client.GetR(h.env, coord, key, 1, func(gr GetResult) { got = gr })
		})
		h.c.Run(3 * time.Second)
		if got.Err != nil || len(got.Values) != 1 || string(got.Values[0]) != "v" {
			t.Fatalf("seed %d: GetR(1) = %q err=%v", seed, values(got), got.Err)
		}
		switch {
		case got.Replicas == 1 && tr.fullAsks == 1:
			ownFirst++
		case tr.fullAsks > 1:
			digestFirst++
		default:
			t.Fatalf("seed %d: %d answers counted, %d asks in full", seed, got.Replicas, tr.fullAsks)
		}
	}
	if ownFirst == 0 || digestFirst == 0 {
		t.Fatalf("30 seeds gave %d reads answered by the coordinator first and %d by a digest first; want both", ownFirst, digestFirst)
	}
}

// TestParkedRepairStateExpiresAtTheReadDeadline: with a replica down,
// every read returns on the other two and parks its merged set to wait
// for the third. Nothing ever answers for it, so the state must go when
// the read's own deadline passes; the parent kept one sibling set per
// read for as long as the replica stayed away.
func TestParkedRepairStateExpiresAtTheReadDeadline(t *testing.T) {
	const reads = 1000
	cfg := Config{N: 3, R: 2, W: 2, ReadRepair: true, Timeout: 200 * time.Millisecond}
	h := newHarness(t, 5, cfg, 27)
	watch(t, h)
	prefs := h.nodes[0].PreferenceList("k0")
	parked := func() int {
		total := 0
		for _, n := range h.nodes {
			for _, sh := range n.shards {
				total += len(sh.repairs)
			}
		}
		return total
	}
	answered, peak := 0, 0
	h.c.At(0, func() { h.c.Crash(prefs[2]) })
	for i := 0; i < reads; i++ {
		i := i
		h.c.At(time.Second+time.Duration(i)*time.Millisecond, func() {
			key := fmt.Sprintf("k%d", i%7)
			coord := h.nodes[0].PreferenceList(key)[0]
			if coord == prefs[2] {
				coord = h.nodes[0].PreferenceList(key)[1]
			}
			h.client.Get(h.env, coord, key, func(gr GetResult) {
				if gr.Err == nil {
					answered++
				}
			})
			if p := parked(); p > peak {
				peak = p
			}
		})
	}
	lastRead := time.Second + reads*time.Millisecond
	h.c.Run(lastRead + cfg.Timeout + 20*time.Millisecond)
	if answered < reads*9/10 {
		t.Fatalf("%d of %d reads answered with one replica down", answered, reads)
	}
	if peak == 0 {
		t.Fatal("no read ever parked repair state: the test exercises nothing")
	}
	if peak > 250 {
		t.Fatalf("%d repair states parked at once: more than one deadline's worth of reads", peak)
	}
	if p := parked(); p != 0 {
		t.Fatalf("%d repair states still parked one timeout after the last read", p)
	}
	for _, n := range h.nodes {
		for i, sh := range n.shards {
			if len(sh.reads) != 0 {
				t.Fatalf("%s shard %d: %d reads still pending", n.id, i, len(sh.reads))
			}
		}
	}
}

// TestMergeKeepsValueBearingCopiesInPreferenceOrder drives
// pendingRead.merge directly: a dot that arrives both in a digest and
// with its value keeps the value whatever the arrival order, and a digest
// is only ever checked, never merged.
func TestMergeKeepsValueBearingCopiesInPreferenceOrder(t *testing.T) {
	a, b := entryAt("x", 1, nil, "a"), entryAt("y", 1, nil, "b")
	digest := func(es ...clock.SiblingEntry[record]) readAnswer {
		out := readAnswer{digest: true}
		for _, e := range es {
			out.dots = append(out.dots, e.DVV.Dot)
		}
		return out
	}
	newer := entryAt("z", 1, clock.Vector{{ID: "x", Counter: 1}, {ID: "y", Counter: 1}}, "c")
	pr := newStepRead(t, "s0", 3, resilience.DefaultPolicy(), true)
	w := pr.walk()
	// answer records a as walk index i's answer, asking i first if the
	// read has not.
	answer := func(i int, a readAnswer) {
		if !pr.asked.has(i) {
			pr.ask(&readEvent{}, w, i, a.digest, readStep{})
		}
		pr.slot(i).answer = a
		pr.answered.add(i)
	}
	pr.fi = 1 // s3, the first fallback, was asked
	answer(3, readAnswer{entries: []clock.SiblingEntry[record]{a}})
	answer(1, readAnswer{entries: []clock.SiblingEntry[record]{b}})
	answer(0, digest(a, b))
	if missing := pr.merge(); missing != 0 {
		t.Fatalf("missing = %b with both dots sent in full", missing)
	}
	es := pr.merged
	if len(es) != 2 || !bytes.Equal(es[0].Value.Value, []byte("b")) || !bytes.Equal(es[1].Value.Value, []byte("a")) {
		t.Fatalf("merged = %+v, want b (a replica's) then a (the fallback's), each with its value", es)
	}
	// A digest that names a version nobody sent: its responder is missing,
	// and the version stays out of merged.
	answer(2, digest(newer))
	if missing := pr.merge(); missing != 1<<2 {
		t.Fatalf("missing = %b, want s2 alone", missing)
	}
	if len(pr.merged) != 2 {
		t.Fatalf("merged holds %d entries, want the two with values", len(pr.merged))
	}
	// Its answer in full replaces the digest and supersedes both.
	answer(2, readAnswer{entries: []clock.SiblingEntry[record]{newer}})
	if missing := pr.merge(); missing != 0 || len(pr.merged) != 1 || string(pr.merged[0].Value.Value) != "c" {
		t.Fatalf("after the full answer: merged = %+v missing = %b, want [c]", pr.merged, missing)
	}
}

// TestDigestAnswerBuildsNoContext: a digest answer is read straight out
// of the stored bytes. For a stored set whose version has a context it
// allocates the dots and the answer handed to Send, and nothing else:
// decoding the context into a clock.Vector would cost a slice of
// entries, and copying the entry out a slice of sibling entries. The previous layout, whose answer
// was the decoded set with its values cleared, took 4 here.
func TestDigestAnswerBuildsNoContext(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	n := NewNode("s0", Config{Ring: []string{"s0", "s1", "s2"}, N: 3, R: 2, W: 2, ReadRepair: true})
	ctx := clock.Vector{{ID: "client", Counter: 3}, {ID: "s1", Counter: 4}, {ID: "s2", Counter: 9}}
	n.installEntry(0, "k", fixtureEntry("client", 4, ctx, make([]byte, 128), false))
	env := &sentEnv{}
	n.answerDigest(env, "s1", replicaDigest{ID: 1, Key: "k"})
	if want := []clock.Dot{{Node: "client", Counter: 4}}; len(env.sent) != 1 || !slices.Equal(env.sent[0].(replicaDigestResp).Dots, want) {
		t.Fatalf("answerDigest sent %+v, want one answer naming %v", env.sent, want)
	}
	var sink transport.Env = sinkEnv{} // boxed once, outside the count
	allocs := testing.AllocsPerRun(200, func() {
		n.answerDigest(sink, "s1", replicaDigest{ID: 1, Key: "k"})
	})
	if allocs != 2 {
		t.Fatalf("answerDigest: %v allocs, want 2 (the dots and the answer)", allocs)
	}
}

// TestDigestReadAgainstEachKindOfPeer reads one key through a
// coordinator whose own replica and a second replica hold the version
// base, while the peer under test holds what the case gives it. A
// digest is the peer's dots, so whether the read re-asks it in full and
// whom it repairs follow from Covers alone. Every count is the one the
// previous layout measured on the same seed, whose digests carried the
// contexts, tombstone bits and flags too: shedding them changed no
// message. The read runs at R=3, so it asks every replica whether it
// asks R or N; in the last case the suspected replica is no longer
// asked at all and the fallback is asked in its place, where it used to
// be asked beside it; either way the crashed replica took no delivery.
func TestDigestReadAgainstEachKindOfPeer(t *testing.T) {
	base := entryAt("x", 1, nil, "base")
	newer := entryAt("x", 2, clock.Vector{{ID: "x", Counter: 1}}, "newer")
	concurrent := entryAt("y", 1, nil, "concurrent")
	tombstone := entryAt("x", 2, clock.Vector{{ID: "x", Counter: 1}}, "")
	tombstone.Value = record{Deleted: true}
	for _, tc := range []struct {
		name     string
		coord    clock.SiblingEntry[record]  // held by the coordinator and prefs[1]
		peer     *clock.SiblingEntry[record] // held by prefs[2]; nil: down, and a fallback holds it as a hint
		want     []string
		traffic  readTraffic // fullAsks: the coordinator's ask of its own replica, then each re-ask
		repaired []int       // indexes into the preference list that end up holding want, in any order
	}{
		{"equal", base, &base, []string{"base"},
			readTraffic{fullAsks: 1, digestAsks: 2, fullAnswers: 1, digestAnswers: 2}, nil},
		{"behind: its dot is covered", newer, &base, []string{"newer"},
			readTraffic{fullAsks: 1, digestAsks: 2, fullAnswers: 1, digestAnswers: 2, repairs: 1}, []int{2}},
		{"ahead: its dot is not covered", base, &newer, []string{"newer"},
			readTraffic{fullAsks: 2, digestAsks: 2, fullAnswers: 2, digestAnswers: 2, repairs: 1}, []int{0, 1}},
		{"concurrent", base, &concurrent, []string{"base", "concurrent"},
			readTraffic{fullAsks: 2, digestAsks: 2, fullAnswers: 2, digestAnswers: 2, repairs: 4}, []int{0, 1, 2}},
		{"a newer tombstone", base, &tombstone, nil,
			readTraffic{fullAsks: 2, digestAsks: 2, fullAnswers: 2, digestAnswers: 2, repairs: 1}, []int{0, 1}},
		{"a fallback answering from its hints", base, nil, []string{"newer"},
			readTraffic{fullAsks: 2, digestAsks: 2, fullAnswers: 2, digestAnswers: 2, repairs: 1}, []int{0, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pol := resilience.DefaultPolicy()
			dir := resilience.NewDirectory(pol)
			h := newHarness(t, 6, Config{
				N: 3, R: 3, W: 2, ReadRepair: true, SloppyQuorum: true,
				HandoffInterval: time.Hour, Resilience: pol, Directory: dir,
			}, 28)
			tr := watch(t, h)
			key := "k"
			prefs, fallbacks := h.nodes[0].cfg.placement(h.nodes[0].epoch.Load(), key)
			for _, rep := range prefs[:2] {
				h.node(rep).installEntry(0, key, tc.coord)
			}
			readAt := time.Duration(0)
			if tc.peer != nil {
				h.node(prefs[2]).installEntry(0, key, *tc.peer)
			} else {
				h.node(fallbacks[0]).storeHint(prefs[2], key, newer)
				dir.Observe(prefs[2], prefs[0], 0) // heard once, then silence
				h.c.At(0, func() { h.c.Crash(prefs[2]) })
				readAt = 30 * time.Second
			}
			var got GetResult
			h.c.At(readAt, func() {
				*tr = readTraffic{}
				h.client.Get(h.env, prefs[0], key, func(gr GetResult) { got = gr })
			})
			h.c.Run(readAt + 2*time.Second)
			if got.Err != nil || strings.Join(values(got), ",") != strings.Join(tc.want, ",") {
				t.Fatalf("get = %q err=%v, want %q", values(got), got.Err, tc.want)
			}
			if *tr != tc.traffic {
				t.Errorf("read traffic %+v, want %+v", *tr, tc.traffic)
			}
			for _, i := range tc.repaired {
				v := values(GetResult{Values: h.node(prefs[i]).LocalValues(key)})
				if slices.Sort(v); strings.Join(v, ",") != strings.Join(tc.want, ",") {
					t.Errorf("after the read prefs[%d] holds %q, want %q", i, v, tc.want)
				}
			}
			if tc.peer == nil {
				if v := h.node(fallbacks[0]).LocalValues(key); len(v) != 0 {
					t.Errorf("read repair stranded %q on the fallback", v)
				}
			}
		})
	}
}
