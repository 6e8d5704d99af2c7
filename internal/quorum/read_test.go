package quorum

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/clock"
	"repro/internal/resilience"
	"repro/internal/ring"
)

// Transport-free tests of the read's decision function (read.go): a
// pendingRead is fed events by hand and its steps are compared.

// suspectSet is a failure detector that suspects the nodes it holds.
type suspectSet map[string]bool

func (s suspectSet) suspects(peer string, _ time.Duration) bool { return s[peer] }

// stepVersions are the versions the tables answer with: b supersedes a,
// and c is concurrent with both.
var stepVersions = map[byte]clock.SiblingEntry[record]{
	'a': entryAt("x", 1, nil, "A"),
	'b': entryAt("x", 2, clock.Vector{{ID: "x", Counter: 1}}, "B"),
	'c': entryAt("y", 1, nil, "C"),
}

// newStepRead is a read at N=3 of a key whose walk is s0 s1 s2 | s3 s4,
// coordinated at self, needing r answers; pol nil is a read without a
// resilience policy, which asks no fallback. Its hedge delay is 120ms.
func newStepRead(t testing.TB, self string, r int, pol *resilience.Policy, repair bool) *pendingRead {
	cfg := &Config{Ring: stepWalk, N: 3, R: r, W: 1, ReadRepair: repair, SloppyQuorum: true, Resilience: pol}
	ep := &ring.Epoch{Ring: ring.New(stepWalk, 1)}
	pr := newPendingRead(cfg, ep, self, keyWalking(t, cfg, ep, stepWalk), r, 120*time.Millisecond)
	pr.id = 1
	return pr
}

// parseReadEvent reads one event of a table: "start", "tick", "deadline",
// "s1!" (s1 refuses), "s1=ab" (s1 answers a and b in full) or "s1:ab" (s1
// answers their dots).
func parseReadEvent(t testing.TB, s string) readEvent {
	switch s {
	case "start":
		return readEvent{kind: evStart}
	case "tick":
		return readEvent{kind: evTick}
	case "deadline":
		return readEvent{kind: evDeadline}
	}
	if node, ok := strings.CutSuffix(s, "!"); ok {
		return readEvent{kind: evRefusal, from: node}
	}
	sep := strings.IndexAny(s, "=:")
	if sep < 0 {
		t.Fatalf("bad event %q", s)
	}
	ev := readEvent{kind: evAnswer, from: s[:sep], answer: readAnswer{digest: s[sep] == ':'}}
	for i := sep + 1; i < len(s); i++ {
		e := stepVersions[s[i]]
		if ev.answer.digest {
			ev.answer.dots = append(ev.answer.dots, e.DVV.Dot)
		} else {
			ev.answer.entries = append(ev.answer.entries, e)
		}
	}
	return ev
}

// renderSteps writes steps as a table cell reads them: "ask s0" and
// "dots s1" (in full, for a digest; "hedge" or "retry" before when so
// marked), "rtt 10ms", "deadline", "tick 280ms", "backoff", "suppressed",
// "repair s2", "park", "forget", and "answer ab" or
// "fail a" with the merged versions.
func renderSteps(pr *pendingRead, steps []readStep) string {
	out := make([]string, 0, len(steps))
	for _, s := range steps {
		var w string
		switch s.kind {
		case stepAsk:
			w = "ask " + s.target
			if s.digest {
				w = "dots " + s.target
			}
			if s.hedge {
				w = "hedge " + w
			} else if s.retry {
				w = "retry " + w
			}
		case stepObserve:
			w = "rtt " + s.delay.String()
		case stepDeadline:
			w = "deadline"
		case stepTick:
			w = "tick " + s.delay.String()
			if s.retry {
				w = "backoff"
			}
		case stepSuppressed:
			w = "suppressed"
		case stepRepair:
			w = "repair " + s.target
		case stepPark:
			w = "park"
		case stepForget:
			w = "forget"
		case stepAnswer:
			w = "answer "
			if s.failed {
				w = "fail "
			}
			for _, e := range pr.merged {
				w += strings.ToLower(string(e.Value.Value))
			}
		}
		out = append(out, w)
	}
	return strings.Join(out, ", ")
}

// TestReadStepTable drives the read's decision function through event
// sequences at N=3 with R=1, 2 and 3. Each line of a cell is an event and
// the steps it must produce; the i-th event happens at 10ms·i. The
// coordinator is s0, a replica, unless the cell says otherwise; s3 and s4
// are the fallbacks. Unless a cell says otherwise the read has the default
// resilience policy (hedge at 120ms, retransmission at 400ms, four
// attempts) and repairs.
func TestReadStepTable(t *testing.T) {
	pol := resilience.DefaultPolicy()
	for _, tc := range []struct {
		name     string
		self     string // default s0
		r        int
		noPolicy bool
		noRepair bool
		suspect  string // a node suspected throughout
		script   []string
	}{
		{name: "R=1, its own replica answers", r: 1, script: []string{
			"start    -> ask s0, deadline, tick 120ms",
			"s0=a     -> forget, answer a",
		}},
		{name: "R=2, agreeing answers", r: 2, script: []string{
			"start    -> ask s0, dots s1, deadline, tick 120ms",
			"s1:a     -> rtt 10ms",
			"s0=a     -> forget, answer a",
			"tick     -> ",
		}},
		{name: "R=3, agreeing answers", r: 3, script: []string{
			"start    -> ask s0, dots s1, dots s2, deadline, tick 120ms",
			"s0=a     -> ",
			"s2:a     -> rtt 20ms",
			"s1:a     -> rtt 30ms, forget, answer a",
		}},
		{name: "R=1, a digest answers first", r: 1, noPolicy: true, script: []string{
			"start    -> ask s0, dots s1, dots s2, deadline",
			"s1:a     -> rtt 10ms, ask s1",
			"s1=a     -> park, answer a",
			"s0=a     -> ",
			"s2:a     -> forget",
		}},
		{name: "R=2, a digest names a missing dot and is asked again in full", r: 2, script: []string{
			"start    -> ask s0, dots s1, deadline, tick 120ms",
			"s0=a     -> ",
			"s1:b     -> rtt 20ms, ask s1",
			"s1:b     -> ",
			"s1=b     -> repair s0, forget, answer b",
		}},
		{name: "R=2, concurrent versions on both replicas", r: 2, script: []string{
			"start    -> ask s0, dots s1, deadline, tick 120ms",
			"s0=a     -> ",
			"s1:c     -> rtt 20ms, ask s1",
			"s1=c     -> repair s0, repair s1, forget, answer ac",
		}},
		{name: "R=2, a lost re-ask is retransmitted", r: 2, script: []string{
			"start    -> ask s0, dots s1, deadline, tick 120ms",
			"s0=a     -> ",
			"s1:b     -> rtt 20ms, ask s1",
			"tick     -> hedge dots s2, tick 280ms",
			"tick     -> retry ask s1, retry dots s2, backoff",
			"s2:a     -> rtt 20ms",
			"s1=b     -> repair s0, repair s2, forget, answer b",
		}},
		{name: "R=2, a refusal", r: 2, script: []string{
			"start    -> ask s0, dots s1, deadline, tick 120ms",
			"s1!      -> dots s2",
			"s0=a     -> ",
			"tick     -> hedge dots s3, tick 280ms",
			"tick     -> retry dots s2, retry dots s3, backoff",
			"s2:a     -> rtt 40ms, forget, answer a",
		}},
		{name: "R=3, a refusal walks to the fallback", r: 3, script: []string{
			"start    -> ask s0, dots s1, dots s2, deadline, tick 120ms",
			"s2!      -> dots s3",
			"s0=a     -> ",
			"s1:a     -> rtt 30ms",
			"s3:b     -> rtt 30ms, ask s3",
			"s3=b     -> repair s0, repair s1, forget, answer b",
		}},
		{name: "R=3, a fallback reader behind the others is not repaired", r: 3, script: []string{
			"start    -> ask s0, dots s1, dots s2, deadline, tick 120ms",
			"s2!      -> dots s3",
			"s0=b     -> ",
			"s1:b     -> rtt 30ms",
			"s3:a     -> rtt 30ms, forget, answer b",
		}},
		{name: "R=2, a refusal after the answer ends the wait", r: 2, noPolicy: true, script: []string{
			"start    -> ask s0, dots s1, dots s2, deadline",
			"s0=a     -> ",
			"s1:a     -> rtt 20ms, park, answer a",
			"s2!      -> forget",
		}},
		{name: "R=2, a suspected replica is asked last", r: 2, suspect: "s1", script: []string{
			"start    -> ask s0, dots s2, deadline, tick 120ms",
			"s0=a     -> ",
			"s2:a     -> rtt 20ms, forget, answer a",
		}},
		// The fallbacks are all asked by the first retransmission round, so
		// that round asks the suspect too, and its answer completes the read.
		{name: "R=3, a suspected replica's place goes to a fallback", r: 3, suspect: "s1", script: []string{
			"start    -> ask s0, dots s2, dots s3, deadline, tick 120ms",
			"tick     -> hedge dots s4, tick 280ms",
			"tick     -> retry ask s0, retry dots s2, retry dots s3, retry dots s4, dots s1, backoff",
			"s0=a     -> ",
			"s4:a     -> rtt 30ms",
			"tick     -> retry dots s1, retry dots s2, retry dots s3, backoff",
			"s1:a     -> rtt 40ms, park, answer a",
		}},
		{name: "R=2, a late answer after the hedge", r: 2, script: []string{
			"start    -> ask s0, dots s1, deadline, tick 120ms",
			"s0=a     -> ",
			"tick     -> hedge dots s2, tick 280ms",
			"s2:a     -> rtt 10ms, park, answer a",
			"s1:b     -> repair s1, forget",
		}},
		{name: "R=2, a lost answer until the deadline", r: 2, script: []string{
			"start    -> ask s0, dots s1, deadline, tick 120ms",
			"s0=a     -> ",
			"tick     -> hedge dots s2, tick 280ms",
			"tick     -> retry dots s1, retry dots s2, backoff",
			"tick     -> retry dots s1, retry dots s2, backoff",
			"tick     -> retry dots s1, retry dots s2, backoff",
			"tick     -> suppressed",
			"deadline -> forget, fail a",
		}},
		{name: "R=2, coordinator outside the preference list", self: "s3", r: 2, script: []string{
			"start    -> ask s0, ask s1, deadline, tick 120ms",
			"s1=a     -> rtt 10ms",
			"s0=      -> rtt 20ms, repair s0, forget, answer a",
		}},
		{name: "R=2, a parked read and a late answer that differs", r: 2, noPolicy: true, script: []string{
			"start    -> ask s0, dots s1, dots s2, deadline",
			"s0=b     -> ",
			"s1:b     -> rtt 20ms, park, answer b",
			"s1:b     -> ",
			"s0=a     -> ",
			"s2=c     -> repair s2, forget",
		}},
		{name: "R=2, a parked read and a late answer that agrees", r: 2, noPolicy: true, script: []string{
			"start    -> ask s0, dots s1, dots s2, deadline",
			"s0=a     -> ",
			"s1:a     -> rtt 20ms, park, answer a",
			"tick     -> ",
			"s2:a     -> forget",
		}},
		{name: "R=2, a parked read forgotten at its deadline", r: 2, noPolicy: true, script: []string{
			"start    -> ask s0, dots s1, dots s2, deadline",
			"s0=a     -> ",
			"s1:a     -> rtt 20ms, park, answer a",
			"deadline -> forget",
		}},
		{name: "R=2, without read repair nothing parks", r: 2, noPolicy: true, noRepair: true, script: []string{
			"start    -> ask s0, dots s1, dots s2, deadline",
			"s0=a     -> ",
			"s1:a     -> rtt 20ms, forget, answer a",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			self := tc.self
			if self == "" {
				self = "s0"
			}
			p := pol
			if tc.noPolicy {
				p = nil
			}
			playRead(t, newStepRead(t, self, tc.r, p, !tc.noRepair), suspectSet{tc.suspect: tc.suspect != ""}, tc.script)
		})
	}
}

// playRead feeds pr the events of a table script, the i-th at 10ms·i,
// and compares the steps each produces.
func playRead(t *testing.T, pr *pendingRead, sus suspectSet, script []string) {
	t.Helper()
	for i, line := range script {
		event, want, _ := strings.Cut(line, "->")
		ev := parseReadEvent(t, strings.TrimSpace(event))
		ev.now, ev.sus = time.Duration(i)*10*time.Millisecond, sus
		if got := renderSteps(pr, pr.step(ev)); got != strings.TrimSpace(want) {
			t.Fatalf("event %d, %s: steps %q, want %q", i, strings.TrimSpace(event), got, strings.TrimSpace(want))
		}
	}
}

// TestReadGoesOutInNameOrder: a retransmission round and the repairs at
// completion go out in node-name order, whatever the walk, so that sends
// interleave the same way for a seed. The table's walk is in name order;
// this one, s3 s4 s0 | s1 s2, is not.
func TestReadGoesOutInNameOrder(t *testing.T) {
	cfg := &Config{Ring: stepWalk, N: 3, R: 3, W: 1, ReadRepair: true, SloppyQuorum: true, Resilience: resilience.DefaultPolicy()}
	ep := &ring.Epoch{Ring: ring.New(stepWalk, 1)}
	key := keyWalking(t, cfg, ep, []string{"s3", "s4", "s0", "s1", "s2"})
	playRead(t, newPendingRead(cfg, ep, "s3", key, 3, 120*time.Millisecond), suspectSet{}, []string{
		"start    -> ask s3, dots s4, dots s0, deadline, tick 120ms",
		"tick     -> hedge dots s1, tick 280ms",
		"tick     -> retry dots s0, retry dots s1, retry ask s3, retry dots s4, backoff",
		"s3=a     -> ",
		"s0:a     -> rtt 40ms",
		"s4=b     -> rtt 50ms, repair s0, repair s3, forget, answer b",
	})
}

// TestReadStepAllocatesNothing: with its slots, merged set and step
// buffer in place, a read takes every event, completion, repair and a
// parked read's late answer included, without an allocation.
func TestReadStepAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	sus := suspectSet{"s1": false}
	script := func(pol *resilience.Policy, events ...string) func() {
		pr := newStepRead(t, "s0", 2, pol, true)
		evs := make([]readEvent, len(events))
		for i, s := range events {
			evs[i] = parseReadEvent(t, s)
			evs[i].sus = sus
		}
		steps := make([]readStep, 0, 16)
		return func() {
			// Back to the read newPendingRead built, keeping the storage
			// its slots and merged set grew to.
			pr.asked, pr.digest, pr.refused, pr.answered = 0, 0, 0, 0
			pr.slots, pr.merged = pr.slots[:0], pr.merged[:0]
			pr.fi, pr.attempt, pr.hedged, pr.done = 0, 0, false, false
			for _, ev := range evs {
				ev.steps = steps
				steps = pr.step(ev)
			}
		}
	}
	for name, run := range map[string]func(){
		"agreeing answers":         script(resilience.DefaultPolicy(), "start", "s0=a", "s1:a", "tick", "deadline"),
		"re-ask, hedge, retry":     script(resilience.DefaultPolicy(), "start", "s1!", "s0=a", "s2:b", "tick", "tick", "s2=b"),
		"deadline":                 script(resilience.DefaultPolicy(), "start", "s0=a", "tick", "tick", "tick", "tick", "tick", "deadline"),
		"parked, late and differs": script(nil, "start", "s0=a", "s1:a", "s2=c"),
	} {
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("%s: %.1f allocations per read", name, allocs)
		}
	}
}

// TestPendingReadSize pins a pending read at the 408 B it measures,
// inside the 416 B size class: it keeps its epoch, not its walk, what it
// knows of each node by walk index, and two answers and one merged
// version in place. The read that kept its walk and two maps was 416 B.
func TestPendingReadSize(t *testing.T) {
	size := unsafe.Sizeof(pendingRead{})
	if size > 408 {
		t.Fatalf("pendingRead is %d B, budget 408", size)
	}
	t.Logf("pendingRead is %d B", size)
}

// FuzzReadStep feeds random event sequences to reads at N=3 with R of 1,
// 2 and 3, coordinated at a replica or not, with and without a policy and
// read repair, under random suspicion, and checks that the client is
// answered at most once; that a success answer comes only after R counted
// answers whose value-bearing ones cover every digest's dots; that no node
// is asked in full twice outside a retransmission tick; and that repairs go
// only to preference-list replicas. Events come as the node would bring
// them: answers and refusals from nodes asked, as asked (or a digest that
// straggles behind a re-ask), ticks only while the retry timer is armed,
// one deadline, and nothing once the read is forgotten.
func FuzzReadStep(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{5, 2, 3, 10, 20, 30, 40, 50, 60, 70, 80, 90})
	f.Add([]byte{14, 4, 5, 255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte{13, 0, 0, 0, 1, 9, 17, 25, 33, 41, 49, 0, 0, 0, 0, 1})
	nodes := []string{"s0", "s1", "s2", "s3", "s4"}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		var pol *resilience.Policy
		if data[0]&4 != 0 {
			pol = resilience.DefaultPolicy()
		}
		pr := newStepRead(t, nodes[int(data[1])%len(nodes)], 1+int(data[0])%3, pol, data[0]&8 != 0)
		w := pr.walk()
		sus := suspectSet{}
		ticks, deadline, answered := 0, 1, 0
		fullAsks, digestAsked := map[string]int{}, map[string]bool{}
		events := append([]byte{0}, data[2:]...)
		for i, b := range events {
			var asked []string // the nodes asked, by name
			for rest := pr.asked; rest != 0; rest &= rest - 1 {
				asked = append(asked, w.node(rest.first()))
			}
			slices.Sort(asked)
			sus[nodes[int(b)%len(nodes)]] = b&1 != 0
			ev := readEvent{kind: evStart}
			switch {
			case i == 0:
			case b%8 == 0 && ticks > 0:
				ev.kind, ticks = evTick, ticks-1
			case b%8 == 1 && deadline > 0:
				ev.kind, deadline = evDeadline, 0
			case len(asked) == 0:
				continue
			case b%8 == 2:
				ev.kind, ev.from = evRefusal, asked[int(b>>3)%len(asked)]
			default:
				// An answer of one of the versions, or of none, as asked.
				node := asked[int(b>>3)%len(asked)]
				sep := byte('=')
				if pr.digest.has(w.index(node)) || digestAsked[node] && b&0x80 != 0 {
					sep = ':'
				}
				ev = parseReadEvent(t, fmt.Sprintf("%s%c%s", node, sep, "abc"[:int(b>>1)%4]))
			}
			ev.now, ev.sus = time.Duration(i)*time.Millisecond, sus
			retransmission := ev.kind == evTick && pr.hedged
			for _, s := range pr.step(ev) {
				switch s.kind {
				case stepAsk:
					digestAsked[s.target] = digestAsked[s.target] || s.digest
					if !s.digest && !retransmission {
						if fullAsks[s.target]++; fullAsks[s.target] > 1 {
							t.Fatalf("event %d: %s asked in full twice outside a retransmission", i, s.target)
						}
					}
				case stepTick:
					ticks++
				case stepRepair:
					if !slices.Contains(w.prefs, s.target) {
						t.Fatalf("event %d: repair of %s, not a replica", i, s.target)
					}
				case stepForget:
					deadline = -1
				case stepAnswer:
					if answered++; answered > 1 {
						t.Fatalf("event %d: the client answered twice", i)
					}
					if s.failed {
						continue
					}
					if pr.answered.len() < int(pr.needed) {
						t.Fatalf("event %d: answered on %d answers, needs %d", i, pr.answered.len(), pr.needed)
					}
					var full clock.Siblings[record]
					for _, sl := range pr.slots {
						for _, e := range sl.answer.entries {
							full.Add(e.DVV, e.Value)
						}
					}
					for _, sl := range pr.slots {
						for _, d := range sl.answer.dots {
							if !full.Covers(d) {
								t.Fatalf("event %d: answered with %s's dot %v missing", i, w.node(int(sl.node)), d)
							}
						}
					}
				}
			}
			if deadline < 0 {
				return // forgotten: the node brings it nothing more
			}
		}
	})
}

// TestRefusalSettlesTheRefusersAsk: a replica that is catching up refuses
// the read. It is asked once: the retransmission round that completes the
// read, after another replica's answers were lost for a while, does not
// ask it again. And nothing parks for it when the read returns, though the
// read repairs.
func TestRefusalSettlesTheRefusersAsk(t *testing.T) {
	pol := resilience.DefaultPolicy()
	placement := ring.New([]string{"s0", "s1", "s2", "s3"}, ring.DefaultVirtualNodes)
	h := newHarness(t, 4, Config{N: 3, R: 3, W: 2, Placement: placement, ReadRepair: true,
		Resilience: pol, Timeout: 2 * time.Second}, 31)
	key := "k"
	prefs, _ := h.nodes[0].cfg.placement(h.nodes[0].epoch.Load(), key)
	coord, gated, lost := h.node(prefs[0]), h.node(prefs[1]), prefs[2]
	gated.gate.Store(&gate{seq: 1, total: 1, pending: []TransferPull{{Source: "nobody"}}})
	for _, n := range h.nodes {
		if n != gated {
			n.installEntry(0, key, entryAt("x", 1, nil, "v"))
		}
	}
	parked := -1
	var got GetResult
	h.c.At(0, func() {
		h.c.BlockLink(lost, coord.id)
		h.client.Get(h.env, coord.id, key, func(gr GetResult) {
			got, parked = gr, 0
			for _, sh := range coord.shards {
				parked += len(sh.repairs)
			}
		})
	})
	h.c.At(300*time.Millisecond, func() { h.c.UnblockLink(lost, coord.id) })
	h.c.Run(3 * time.Second)
	if got.Err != nil || len(got.Values) != 1 || string(got.Values[0]) != "v" || got.Replicas != 3 {
		t.Fatalf("get = %q err=%v on %d answers", values(got), got.Err, got.Replicas)
	}
	if n := gated.Transfer.GatedReads.Load(); n != 1 {
		t.Errorf("the catching-up replica was asked %d times, want once", n)
	}
	if parked != 0 {
		t.Errorf("%d reads parked for repair when the read returned, want none", parked)
	}
}
