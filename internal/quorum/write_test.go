package quorum

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/resilience"
	"repro/internal/ring"
)

// Transport-free tests of the write's decision function (write.go): a
// pendingWrite is fed events by hand and its steps are compared.

// stepWalk is the walk of every table write: s0 s1 s2 are its preferences
// and s3 s4 its fallbacks.
var stepWalk = []string{"s0", "s1", "s2", "s3", "s4"}

// stepWrite configures a table write at N=3.
type stepWrite struct {
	w        int
	self     string // the coordinator; default s0
	noPolicy bool   // no resilience policy (the default policy otherwise)
	noSloppy bool   // no sloppy quorum (on otherwise)
	geo      bool   // GeoAsync, the coordinator's zone east: s0, s1 and s3 are east, s2 and s4 west
	dual     bool   // a Placement ring whose open window's previous ring lacks s1
}

// newStepWrite builds the write sw describes, of a key whose walk is
// stepWalk.
func newStepWrite(t testing.TB, sw stepWrite) *pendingWrite {
	cfg := &Config{Ring: stepWalk, N: 3, R: 1, W: sw.w, SloppyQuorum: !sw.noSloppy, GeoAsync: sw.geo, Zone: "east"}
	if !sw.noPolicy {
		cfg.Resilience = resilience.DefaultPolicy()
	}
	ep := &ring.Epoch{Ring: ring.New(stepWalk, 1)}
	if sw.geo {
		ep.Ring = ring.NewZoned(stepWalk, 1, map[string]string{"s0": "east", "s1": "east", "s2": "west", "s3": "east", "s4": "west"})
	}
	if sw.dual {
		cfg.Placement = ring.New(stepWalk, ring.DefaultVirtualNodes)
		ep = &ring.Epoch{Seq: 1, Ring: cfg.Placement, Prev: cfg.Placement.Leave("s1")}
	}
	return &pendingWrite{id: 1, key: keyWalking(t, cfg, ep, stepWalk), cfg: cfg, ep: ep}
}

// keyWalking returns a key whose walk under cfg and ep is walk.
func keyWalking(t testing.TB, cfg *Config, ep *ring.Epoch, walk []string) string {
	for i := 0; i < 1<<16; i++ {
		key := fmt.Sprintf("k%d", i)
		if prefs, fallbacks := cfg.placement(ep, key); slices.Equal(append(slices.Clip(prefs), fallbacks...), walk) {
			return key
		}
	}
	t.Fatalf("no key walks %v", walk)
	return ""
}

// parseWriteEvent reads one event of a table: "start", "tick",
// "deadline", "s1+" (s1 acks) or "s1!" (s1 refuses: it does not own the
// key).
func parseWriteEvent(t testing.TB, s string) writeEvent {
	switch s {
	case "start":
		return writeEvent{kind: wrStart}
	case "tick":
		return writeEvent{kind: wrTick}
	case "deadline":
		return writeEvent{kind: wrDeadline}
	}
	if node, ok := strings.CutSuffix(s, "+"); ok {
		return writeEvent{kind: wrAck, from: node}
	}
	if node, ok := strings.CutSuffix(s, "!"); ok {
		return writeEvent{kind: wrRefusal, from: node}
	}
	t.Fatalf("bad event %q", s)
	return writeEvent{}
}

// renderWriteSteps writes steps as a table cell reads them: "geo s2",
// "send s1" ("resend s1" in a retransmission round), "hint s3 for s1",
// "dual s3", "install", "dual install", "deadline", "tick", "backoff",
// "suppressed", "forget", and "ok" or "fail", with " sloppy" when a
// fallback was engaged.
func renderWriteSteps(pw *pendingWrite, steps []writeStep) string {
	out := make([]string, 0, len(steps))
	for _, s := range steps {
		var w string
		switch s.kind {
		case wstepGeo:
			w = "geo " + s.to
		case wstepSend:
			w = "send " + s.to
			if s.retry {
				w = "resend " + s.to
			}
		case wstepHint:
			w = "hint " + s.to + " for " + s.hint
		case wstepDual:
			w = "dual " + s.to
		case wstepInstall:
			w = "install"
		case wstepDualInstall:
			w = "dual install"
		case wstepDeadline:
			w = "deadline"
		case wstepTick:
			w = "tick"
			if s.retry {
				w = "backoff"
			}
		case wstepSuppressed:
			w = "suppressed"
		case wstepForget:
			w = "forget"
		case wstepAnswer:
			w = "ok"
			if s.failed {
				w = "fail"
			}
			if pw.sloppy {
				w += " sloppy"
			}
		}
		out = append(out, w)
	}
	return strings.Join(out, ", ")
}

// TestWriteStepTable drives the write's decision function through event
// sequences at N=3 with W=1, 2 and 3. Each line of a cell is an event and
// the steps it must produce. The coordinator is s0, a replica, unless the
// cell says otherwise; s3 and s4 are the fallbacks. Unless a cell says
// otherwise the write has the default resilience policy (retransmission at
// 400ms, four attempts) and a sloppy quorum. "s1?" makes the failure
// detector suspect s1 from then on, and takes no step.
func TestWriteStepTable(t *testing.T) {
	for _, tc := range []struct {
		name string
		stepWrite
		script []string
	}{
		{name: "W=1, its own install answers", stepWrite: stepWrite{w: 1}, script: []string{
			"start    -> send s1, send s2, install, forget, ok",
		}},
		{name: "W=2, all ack", stepWrite: stepWrite{w: 2}, script: []string{
			"start    -> send s1, send s2, install, deadline, tick",
			"s2+      -> forget, ok",
			"s1+      -> ",
		}},
		{name: "W=3, all ack", stepWrite: stepWrite{w: 3}, script: []string{
			"start    -> send s1, send s2, install, deadline, tick",
			"s2+      -> ",
			"s2+      -> ",
			"s1+      -> forget, ok",
		}},
		{name: "W=2, without a policy nothing is retransmitted", stepWrite: stepWrite{w: 2, noPolicy: true}, script: []string{
			"start    -> send s1, send s2, install, deadline",
			"s1+      -> forget, ok",
		}},
		{name: "W=2, coordinator outside the preference list", stepWrite: stepWrite{w: 2, self: "s3"}, script: []string{
			"start    -> send s0, send s1, send s2, deadline, tick",
			"s0+      -> ",
			"s1+      -> forget, ok",
		}},
		{name: "W=3, one silent replica is retransmitted to, then given a fallback", stepWrite: stepWrite{w: 3}, script: []string{
			"start    -> send s1, send s2, install, deadline, tick",
			"s1+      -> ",
			"tick     -> resend s2, backoff",
			"tick     -> resend s2, backoff",
			"deadline -> hint s3 for s2, deadline",
			"s3+      -> forget, ok sloppy",
		}},
		{name: "W=3, a replica suspected at a retransmission round gets a fallback", stepWrite: stepWrite{w: 3}, script: []string{
			"start    -> send s1, send s2, install, deadline, tick",
			"s1+      -> ",
			"s2?      -> ",
			"tick     -> resend s2, hint s3 for s2, backoff",
			"tick     -> resend s2, backoff",
			"s3+      -> forget, ok sloppy",
		}},
		{name: "W=2, the attempt budget runs out", stepWrite: stepWrite{w: 2}, script: []string{
			"start    -> send s1, send s2, install, deadline, tick",
			"tick     -> resend s1, resend s2, backoff",
			"tick     -> resend s1, resend s2, backoff",
			"tick     -> resend s1, resend s2, backoff",
			"tick     -> suppressed",
			"deadline -> hint s3 for s1, hint s4 for s2, deadline",
			"s4+      -> forget, ok sloppy",
		}},
		{name: "W=2, a replica suspected at start gets a hinted fallback at once", stepWrite: stepWrite{w: 2}, script: []string{
			"s1?      -> ",
			"start    -> send s1, hint s3 for s1, send s2, install, deadline, tick",
			"s3+      -> forget, ok sloppy",
		}},
		// A preference and its stand-in count as two: s2 never acks.
		{name: "W=3, a preference and its stand-in both count", stepWrite: stepWrite{w: 3}, script: []string{
			"s1?      -> ",
			"start    -> send s1, hint s3 for s1, send s2, install, deadline, tick",
			"s1+      -> ",
			"s3+      -> forget, ok sloppy",
		}},
		{name: "W=2, a suspect without a sloppy quorum gets no stand-in", stepWrite: stepWrite{w: 2, noSloppy: true}, script: []string{
			"s1?      -> ",
			"start    -> send s1, send s2, install, deadline, tick",
			"tick     -> resend s1, resend s2, backoff",
			"s2+      -> forget, ok",
		}},
		// A refusal says the coordinator's ring is stale: the refuser is
		// not resent to, gets no stand-in, and its ack counts nothing.
		{name: "W=3, a not-owner refusal takes no step", stepWrite: stepWrite{w: 3}, script: []string{
			"start    -> send s1, send s2, install, deadline, tick",
			"s1!      -> ",
			"s2+      -> ",
			"tick     -> backoff",
			"s1+      -> ",
			"deadline -> forget, fail",
		}},
		{name: "W=2, a write answers without its refuser", stepWrite: stepWrite{w: 2}, script: []string{
			"start    -> send s1, send s2, install, deadline, tick",
			"s1!      -> ",
			"tick     -> resend s2, backoff",
			"s2+      -> forget, ok",
		}},
		{name: "W=2, an ack from a node never sent to counts nothing", stepWrite: stepWrite{w: 2}, script: []string{
			"start    -> send s1, send s2, install, deadline, tick",
			"s3+      -> ",
			"s0+      -> ",
			"s2+      -> forget, ok",
		}},
		{name: "W=3, a geo-async replica is left out of the count", stepWrite: stepWrite{w: 3, geo: true}, script: []string{
			"start    -> send s1, geo s2, install, deadline, tick",
			"s2+      -> ",
			"tick     -> resend s1, backoff",
			"s1+      -> forget, ok",
		}},
		{name: "W=2, a geo-async replica gets no stand-in", stepWrite: stepWrite{w: 2, geo: true}, script: []string{
			"start    -> send s1, geo s2, install, deadline, tick",
			"deadline -> hint s3 for s1, deadline",
			"s3+      -> forget, ok sloppy",
		}},
		{name: "W=2, dual-apply to a previous owner is not counted", stepWrite: stepWrite{w: 2, dual: true}, script: []string{
			"start    -> send s1, send s2, dual s3, install, deadline, tick",
			"s3+      -> ",
			"s1+      -> forget, ok",
		}},
		{name: "W=3, dual-apply on a coordinator that was an owner", stepWrite: stepWrite{w: 3, dual: true, self: "s3"}, script: []string{
			"start    -> send s0, send s1, send s2, dual install, deadline, tick",
			"s0+      -> ",
			"s2+      -> ",
			"s1+      -> forget, ok",
		}},
		{name: "W=3, the deadline without a fallback left", stepWrite: stepWrite{w: 3}, script: []string{
			"s1?      -> ",
			"s2?      -> ",
			"start    -> send s1, hint s3 for s1, send s2, hint s4 for s2, install, deadline, tick",
			"s3+      -> ",
			"deadline -> deadline",
			"deadline -> forget, fail sloppy",
			"s4+      -> ",
		}},
		{name: "W=2, the deadline without a sloppy quorum", stepWrite: stepWrite{w: 2, noSloppy: true}, script: []string{
			"start    -> send s1, send s2, install, deadline, tick",
			"deadline -> forget, fail",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pw := newStepWrite(t, tc.stepWrite)
			self := cmp.Or(tc.self, "s0")
			sus := suspectSet{}
			for i, line := range tc.script {
				event, want, _ := strings.Cut(line, "->")
				event = strings.TrimSpace(event)
				if node, ok := strings.CutSuffix(event, "?"); ok {
					sus[node] = true
					continue
				}
				ev := parseWriteEvent(t, event)
				if ev.kind == wrStart {
					ev.from = self
				}
				ev.now, ev.sus = time.Duration(i)*10*time.Millisecond, sus
				if got := renderWriteSteps(pw, pw.step(ev)); got != strings.TrimSpace(want) {
					t.Fatalf("event %d, %s: steps %q, want %q", i, event, got, strings.TrimSpace(want))
				}
			}
		})
	}
}

// TestWriteStepAllocatesNothing: with the node's buffer handed back, a
// write takes every event, fallbacks, retransmission and dual-apply
// included, without an allocation.
func TestWriteStepAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	sus := suspectSet{"s1": true}
	script := func(sw stepWrite, events ...string) func() {
		pw := newStepWrite(t, sw)
		evs := make([]writeEvent, len(events))
		for i, s := range events {
			evs[i] = parseWriteEvent(t, s)
			evs[i].from = cmp.Or(evs[i].from, "s0")
			evs[i].sus = sus
		}
		var buf []writeStep
		return func() {
			pw.acked, pw.hinted, pw.excused = 0, 0, 0
			pw.attempt, pw.needed, pw.fi = 0, 0, 0
			pw.sloppy, pw.fbTried, pw.done = false, false, false
			for _, ev := range evs {
				ev.steps = buf
				buf = pw.step(ev)
			}
		}
	}
	for name, run := range map[string]func(){
		"all ack":               script(stepWrite{w: 3}, "start", "s1+", "s2+"),
		"suspect and fallbacks": script(stepWrite{w: 3}, "start", "tick", "tick", "tick", "tick", "deadline", "s4+", "s3+"),
		"dual-apply":            script(stepWrite{w: 2, dual: true}, "start", "s1!", "s2+"),
		"geo-async":             script(stepWrite{w: 3, geo: true}, "start", "s1+"),
		"deadline":              script(stepWrite{w: 3, noSloppy: true}, "start", "deadline"),
	} {
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("%s: %.1f allocations per write", name, allocs)
		}
	}
}

// TestPendingWriteSize pins a pending write inside the 208 B size class:
// it keeps its epoch, not its walk, and its sets as bits.
func TestPendingWriteSize(t *testing.T) {
	size := unsafe.Sizeof(pendingWrite{})
	if size > 208 {
		t.Fatalf("pendingWrite is %d B, budget 208", size)
	}
	t.Logf("pendingWrite is %d B", size)
}

// FuzzWriteStep feeds random event sequences to writes at N=3 with W of
// 1, 2 and 3, coordinated at a replica or not, with and without a policy,
// a sloppy quorum, geo-async replicas and an open dual-apply window, under
// random suspicion, and checks that the client is answered once at most;
// that a success answer comes only after the needed acks (W, or the
// sub-quorum in the coordinator's zone) from distinct nodes the write sent
// to, itself included when it installed; that no fallback stands in for
// two preferences and no preference has two stand-ins; that every hint
// names a preference; and that once a node refused a replicaPut the write
// sent it, no step addresses it and no hint names it. Acks and refusals
// come from any node of the walk: one the write never sent to must count
// nothing. Ticks come only while the retry timer is armed and deadlines
// only while the time-out is, and nothing once the write is forgotten.
func FuzzWriteStep(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{2, 1, 8, 16, 24, 32, 40, 48, 56, 64})
	f.Add([]byte{14, 3, 255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte{29, 0, 1, 9, 17, 25, 33, 41, 49, 0, 0, 0, 0, 1})
	f.Add([]byte{50, 4, 3, 11, 19, 27, 6, 14, 22, 30, 1, 1})
	f.Add([]byte{48, 48, 50, 48}) // s1 refuses, then a retry tick
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		sw := stepWrite{w: 1 + int(data[0])%3, self: stepWalk[int(data[1])%len(stepWalk)],
			noPolicy: data[0]&4 != 0, noSloppy: data[0]&8 != 0, geo: data[0]&16 != 0 && data[0]&32 == 0, dual: data[0]&32 != 0}
		pw := newStepWrite(t, sw)
		prefs := stepWalk[:3]
		sus := suspectSet{}
		ticks, deadlines, answered := 0, 0, 0
		sent, acked := map[string]bool{}, map[string]bool{}
		standIn, hinted := map[string]string{}, map[string]bool{}
		refused := map[string]bool{}
		geoAsync := 0
		events := append([]byte{0}, data[2:]...)
		for i, b := range events {
			sus[stepWalk[int(b)%len(stepWalk)]] = b&1 != 0
			ev := writeEvent{kind: wrStart, from: sw.self}
			switch {
			case i == 0:
			case b%8 == 0 && ticks > 0:
				ev.kind, ticks = wrTick, ticks-1
			case b%8 == 1 && deadlines > 0:
				ev.kind, deadlines = wrDeadline, deadlines-1
			case b%8 == 2:
				ev.kind, ev.from = wrRefusal, stepWalk[int(b>>3)%len(stepWalk)]
				refused[ev.from] = refused[ev.from] || sent[ev.from]
			default:
				ev.kind, ev.from = wrAck, stepWalk[int(b>>3)%len(stepWalk)]
				acked[ev.from] = acked[ev.from] || sent[ev.from]
			}
			ev.now, ev.sus = time.Duration(i)*time.Millisecond, sus
			for _, s := range pw.step(ev) {
				if refused[s.to] || refused[s.hint] {
					t.Fatalf("event %d: a step to %q for %q after a refusal", i, s.to, s.hint)
				}
				switch s.kind {
				case wstepGeo:
					geoAsync++
				case wstepSend:
					sent[s.to] = true
				case wstepInstall:
					sent[sw.self] = true
					acked[sw.self] = true
				case wstepHint:
					if !slices.Contains(prefs, s.hint) {
						t.Fatalf("event %d: a hint names %s, not a preference", i, s.hint)
					}
					if hinted[s.hint] {
						t.Fatalf("event %d: %s got a second stand-in", i, s.hint)
					}
					if _, ok := standIn[s.to]; ok || slices.Contains(prefs, s.to) {
						t.Fatalf("event %d: %s stands in for %s and %s", i, s.to, standIn[s.to], s.hint)
					}
					standIn[s.to], hinted[s.hint] = s.hint, true
					sent[s.to] = true
				case wstepTick:
					ticks++
				case wstepDeadline:
					deadlines++
				case wstepForget:
					ticks, deadlines = 0, -1
				case wstepAnswer:
					if answered++; answered > 1 {
						t.Fatalf("event %d: the client answered twice", i)
					}
					needed := sw.w
					if geoAsync > 0 {
						needed = min(sw.w, len(prefs)-geoAsync)
					}
					counted := 0
					for _, ok := range acked {
						if ok {
							counted++
						}
					}
					if !s.failed && counted < needed {
						t.Fatalf("event %d: answered on %d counted acks, needs %d", i, counted, needed)
					}
				}
			}
			if deadlines < 0 {
				return // forgotten: the node brings it nothing more
			}
		}
	})
}
