package quorum

import (
	"slices"
	"time"

	"repro/internal/clock"
	"repro/internal/geo"
	"repro/internal/ring"
	"repro/internal/transport"
)

// A quorum read is one decision function, pendingRead.step: it takes an
// event of the read (start, answer, refusal, tick, deadline) and returns
// the steps that follow (asks, timers, counts, repairs, park or forget,
// the answer). The node carries events in and steps out (coordinateGet,
// onRead): it sends, sets the timers and journals. step sends nothing and
// reads no clock, so a test drives a read without a transport. Each rule
// is written once, on the function that applies it: whom to ask (start,
// askNext), completion and the re-ask (answer), the hedge and
// retransmission (tick), the refusal and the deadline (step), and repair
// (stale, late).

type readEventKind uint8

const (
	evStart    readEventKind = iota
	evAnswer                 // from answered, in full or as a digest
	evRefusal                // from is catching up and refused the ask
	evTick                   // the retry timer: the hedge first, then retransmission rounds
	evDeadline               // the read's timeout
)

// detector is the node's failure detector (Node.suspects), as an event
// of a read or a write brings it.
type detector interface {
	suspects(peer string, now time.Duration) bool
}

// readEvent is one event of a read, with the time it happened and the
// node's failure detector. steps is the buffer the steps that follow are
// appended to, as a writeEvent's is.
type readEvent struct {
	kind   readEventKind
	from   string
	answer readAnswer
	now    time.Duration
	sus    detector
	steps  []readStep
}

func (ev *readEvent) emit(s readStep) { ev.steps = append(ev.steps, s) }

type readStepKind uint8

const (
	stepAsk        readStepKind = iota // ask target, for its dots only when digest
	stepObserve                        // a peer's first answer took delay: a round-trip sample
	stepDeadline                       // arm the read's timeout
	stepTick                           // arm the retry timer after delay, or at the backoff of a retransmission
	stepSuppressed                     // the attempt budget is spent
	stepRepair                         // push the merged set to target
	stepPark                           // the read answered: keep it for late answers
	stepForget                         // drop the read and cancel both its timers
	stepAnswer                         // answer the client with the merged set, or fail
)

// readStep is one thing the node does for a read. An ask says whether it
// is the hedge or a retransmission (they are counted). A repair of the
// coordinator's own replica installs in place, at completion and after a
// late answer alike.
type readStep struct {
	target                       string
	delay                        time.Duration
	kind                         readStepKind
	digest, hedge, retry, failed bool
}

// readAnswer is one node's answer to a read: its sibling entries, or
// the dots of a digest.
type readAnswer struct {
	entries []clock.SiblingEntry[record]
	dots    []clock.Dot
	digest  bool
}

// names reports whether the answer names exactly the versions of merged,
// by dot: all a read learns of a digest, and all it needs of a full
// answer to tell whether its replica needs repair.
func (a readAnswer) names(merged versions) bool {
	if a.digest {
		return len(a.dots) == len(merged) && !slices.ContainsFunc(a.dots, func(d clock.Dot) bool { return !merged.has(d) })
	}
	return len(a.entries) == len(merged) &&
		!slices.ContainsFunc(a.entries, func(e clock.SiblingEntry[record]) bool { return !merged.has(e.DVV.Dot) })
}

// versions is a read's merged set: clock.Siblings's supersession
// (clock.AddSibling) over a slice the read gives it, so that the set of
// one version lives in the read.
type versions []clock.SiblingEntry[record]

func (vs *versions) add(e clock.SiblingEntry[record]) { *vs, _ = clock.AddSibling(*vs, e.DVV, e.Value) }

func (vs *versions) reset() {
	clear(*vs)
	*vs = (*vs)[:0]
}

// has reports whether a version carries dot d.
func (vs versions) has(d clock.Dot) bool {
	return slices.ContainsFunc(vs, func(e clock.SiblingEntry[record]) bool { return e.DVV.Dot == d })
}

// covers reports whether the set accounts for the write with dot d: a
// version carries d or has seen it (clock.Siblings.Covers).
func (vs versions) covers(d clock.Dot) bool {
	return slices.ContainsFunc(vs, func(e clock.SiblingEntry[record]) bool {
		return e.DVV.Dot == d || e.DVV.Obsoletes(clock.DVV{Dot: d})
	})
}

// context is the merged causal context of the versions, what the client
// echoes to supersede them all (clock.Siblings.Context).
func (vs versions) context() clock.Vector {
	ctx := clock.Vector{}
	for _, e := range vs {
		ctx = ctx.Merge(e.DVV.Join(clock.DVV{}))
	}
	return ctx
}

// readWalk is the walk a read asks along: its preferences at walk indexes
// 0..N−1, then the fallbacks it may ask (see pendingRead.walk).
type readWalk struct{ prefs, fallbacks []string }

// offWalk is the walk index of a node outside the walk. A walkSet holds
// no bit for it (a shift by 64 is 0), so it is in no set and adding it
// changes none.
const offWalk = 64

func (w readWalk) node(i int) string {
	if i < len(w.prefs) {
		return w.prefs[i]
	}
	return w.fallbacks[i-len(w.prefs)]
}

// index returns node's walk index, or offWalk.
func (w readWalk) index(node string) int {
	if i := slices.Index(w.prefs, node); i >= 0 {
		return i
	}
	if i := slices.Index(w.fallbacks, node); i >= 0 {
		return len(w.prefs) + i
	}
	return offWalk
}

// firstByName returns the index of s whose node's name sorts first:
// repairs and retransmissions go out in name order, so that the sends
// interleave the same way for a seed whatever the walk.
func (w readWalk) firstByName(s walkSet) int {
	first := offWalk
	for ; s != 0; s &= s - 1 {
		if i := s.first(); first == offWalk || w.node(i) < w.node(first) {
			first = i
		}
	}
	return first
}

// readSlot is what a read keeps of one node it asked: its walk index,
// when it was first asked, which its first answer times a round trip
// from, and its answer once it has one (pendingRead.answered).
type readSlot struct {
	answer readAnswer
	at     time.Duration
	node   uint8
}

// pendingRead is a read from its start until it is forgotten: in flight
// in its shard's reads, then, if it answered while replicas it asked had
// not, parked in the shard's repairs. Like a pendingWrite it does not
// keep its walk, and it keeps what it knows of each node by walk index.
type pendingRead struct {
	client     string
	reply      func(transport.Env, GetResult) // see pendingWrite.reply
	id         uint64
	key        string
	cfg        *Config
	ep         *ring.Epoch
	staleMs    int64             // a read in this process: its plan's staleness, and tier, for its result
	timer      transport.TimerID // the deadline
	retryTimer transport.TimerID // the retry timer
	hedge      time.Duration     // when the retry timer first fires

	// The nodes asked, those whose ask that stands is for a digest (a
	// re-ask in full clears it), the refusers and the nodes answered.
	asked, digest, refused, answered walkSet
	// A slot per node asked, in the order first asked: two in the read, and
	// on the heap once a third is asked (the hedge, or a read without a
	// policy, which asks all N).
	slots  []readSlot
	inline [2]readSlot
	// The merged set (see merge), in the read while it holds one version.
	merged versions
	one    [1]clock.SiblingEntry[record]

	attempt      uint16   // retransmission rounds spent
	tier         geo.Kind // see staleMs
	needed       uint8    // R
	self         uint8    // the coordinator's walk index: it alone is asked for values when it holds a replica
	fi           uint8    // fallbacks asked: the walk's next unused one is N+fi
	hedged, done bool     // the hedge fired; the client answered
}

// newPendingRead builds the read of key that self coordinates under ep,
// needing needed answers, whose retry timer first fires at hedge.
func newPendingRead(cfg *Config, ep *ring.Epoch, self, key string, needed int, hedge time.Duration) *pendingRead {
	pr := &pendingRead{key: key, cfg: cfg, ep: ep, needed: uint8(needed), hedge: hedge}
	pr.self = uint8(pr.walk().index(self))
	pr.slots, pr.merged = pr.inline[:0], pr.one[:0]
	return pr
}

// walk cuts the read's walk again from the epoch it started under
// (Config.placement), as a write's step does. Its fallbacks are asked
// under a sloppy quorum with a policy, and with a Placement ring, where a
// refused read must reach the old owners further along the new ring. The
// walk stops at index 63 (see walkSet).
func (pr *pendingRead) walk() readWalk {
	prefs, fallbacks := pr.cfg.placement(pr.ep, pr.key)
	if (pr.cfg.Resilience == nil || !pr.cfg.SloppyQuorum) && pr.cfg.Placement == nil {
		fallbacks = nil
	}
	return readWalk{prefs, fallbacks[:min(len(fallbacks), offWalk-len(prefs))]}
}

// digests reports whether the coordinator holds a replica of the key: then
// it asks its own replica in full and the others for digests.
func (pr *pendingRead) digests() bool { return int(pr.self) < pr.cfg.N }

// slot returns walk index i's slot, or nil if the read has not asked it.
// The pointer lasts until the next ask.
func (pr *pendingRead) slot(i int) *readSlot {
	for k := range pr.slots {
		if int(pr.slots[k].node) == i {
			return &pr.slots[k]
		}
	}
	return nil
}

// step takes one event and returns the steps that follow, in the order
// the node carries them out; the slice is valid until the next call. A
// refusal settles the refuser's ask: it does not count toward R, is not
// asked again and is not waited for, and the next node is asked in its
// place. At the deadline a read in flight fails with what its
// value-bearing answers merge to, and a parked one is forgotten.
func (pr *pendingRead) step(ev readEvent) []readStep {
	ev.steps = ev.steps[:0]
	w := pr.walk()
	from := w.index(ev.from)
	switch {
	case ev.kind == evStart:
		pr.start(&ev, w)
	case ev.kind == evAnswer && pr.done:
		pr.late(&ev, w, from)
	case ev.kind == evAnswer:
		pr.answer(&ev, w, from)
	case ev.kind == evRefusal:
		pr.refused.add(from)
		if !pr.done {
			pr.askNext(&ev, w, false)
		} else if !pr.waiting() {
			ev.emit(readStep{kind: stepForget})
		}
	case ev.kind == evTick && !pr.done:
		pr.tick(&ev, w)
	case ev.kind == evDeadline && !pr.done:
		pr.merge()
		pr.finish(&ev, w, true)
	case ev.kind == evDeadline:
		ev.emit(readStep{kind: stepForget})
	}
	return ev.steps
}

// start asks R nodes. A coordinator in the key's preference list asks its
// own replica in full and the first R−1 other replicas it does not
// suspect for digests; one outside the list asks the first R it does not
// suspect, in full; askNext makes up a shortfall. A read without a policy
// asks all N at once and the fastest R answers win (the race E2
// quantifies).
func (pr *pendingRead) start(ev *readEvent, w readWalk) {
	pol := pr.cfg.Resilience
	others := len(w.prefs) // a policy-less read asks them all
	if pol != nil {
		others = int(pr.needed)
	}
	if pr.digests() {
		others-- // its own replica is asked whatever else is
	}
	for i, rep := range w.prefs {
		if i == int(pr.self) {
			pr.ask(ev, w, i, false, readStep{})
		} else if others > 0 && (pol == nil || !ev.sus.suspects(rep, ev.now)) {
			pr.ask(ev, w, i, pr.digests(), readStep{})
			others--
		}
	}
	for ; others > 0 && pr.askNext(ev, w, false); others-- {
	}
	ev.emit(readStep{kind: stepDeadline})
	if pol != nil {
		ev.emit(readStep{kind: stepTick, delay: pr.hedge})
	}
}

// askNext asks one more node: the first replica not yet asked and not
// suspected, else the next fallback, else the first replica not yet
// asked. It reports whether anyone was left.
func (pr *pendingRead) askNext(ev *readEvent, w readWalk, hedge bool) bool {
	next := pr.unasked(ev, w, false)
	if next == offWalk && int(pr.fi) < len(w.fallbacks) {
		next = len(w.prefs) + int(pr.fi)
		pr.fi++
	}
	if next == offWalk {
		next = pr.unasked(ev, w, true)
	}
	if next == offWalk {
		return false
	}
	pr.ask(ev, w, next, pr.digests() && next != int(pr.self), readStep{hedge: hedge})
	return true
}

// unasked returns the first replica not yet asked, skipping those the node
// suspects unless suspectsToo, or offWalk if there is none.
func (pr *pendingRead) unasked(ev *readEvent, w readWalk, suspectsToo bool) int {
	for i, rep := range w.prefs {
		if !pr.asked.has(i) && (suspectsToo || !ev.sus.suspects(rep, ev.now)) {
			return i
		}
	}
	return offWalk
}

// ask asks walk index i, for a digest or in full, and records which ask
// now stands; why carries the ask's hedge or retry mark.
func (pr *pendingRead) ask(ev *readEvent, w readWalk, i int, digest bool, why readStep) {
	if !pr.asked.has(i) {
		pr.asked.add(i)
		pr.slots = append(pr.slots, readSlot{node: uint8(i), at: ev.now})
	}
	if digest {
		pr.digest.add(i)
	} else {
		pr.digest.del(i)
	}
	why.kind, why.target, why.digest = stepAsk, w.node(i), digest
	ev.emit(why)
}

// waiting reports whether a replica the read asked has neither answered
// nor refused: what a read that answered parks for. The replicas are walk
// indexes 0..N−1.
func (pr *pendingRead) waiting() bool {
	return (pr.asked&^pr.refused&^pr.answered)&(1<<pr.cfg.N-1) != 0
}

// answer counts an answer. A read completes on R answers of which every
// dot surviving the merge of their clocks has its value; a digest naming
// a surviving dot nobody sent is asked again in full, once.
func (pr *pendingRead) answer(ev *readEvent, w readWalk, from int) {
	s := pr.slot(from)
	if s == nil {
		return // the read did not ask from
	}
	answered := pr.answered.has(from)
	if answered && !s.answer.digest && ev.answer.digest {
		return // a straggling digest does not displace the values already here
	}
	if !answered && from != int(pr.self) {
		ev.emit(readStep{kind: stepObserve, delay: ev.now - s.at})
	}
	s.answer = ev.answer
	pr.answered.add(from)
	if pr.answered.len() < int(pr.needed) {
		return
	}
	missing := pr.merge()
	if missing == 0 {
		pr.finish(ev, w, false)
		return
	}
	for ; missing != 0; missing &= missing - 1 {
		if i := missing.first(); pr.digest.has(i) {
			pr.ask(ev, w, i, false, readStep{})
		}
	}
}

// finish answers the client: repairs first, in name order, then park or
// forget, then the answer.
func (pr *pendingRead) finish(ev *readEvent, w readWalk, failed bool) {
	pr.done = true
	then := stepForget
	if pr.cfg.ReadRepair && !failed {
		for rest := pr.answered; rest != 0; {
			i := w.firstByName(rest)
			rest.del(i)
			if pr.stale(i) {
				ev.emit(readStep{kind: stepRepair, target: w.node(i)})
			}
		}
		if pr.waiting() {
			then = stepPark
		}
	}
	ev.emit(readStep{kind: then})
	ev.emit(readStep{kind: stepAnswer, failed: failed})
}

// stale is the repair rule: walk index i, which answered, is a replica of
// the key (a fallback reader is not, and the read path never consults it
// again) and its answer does not name the merged set.
func (pr *pendingRead) stale(i int) bool {
	return i < pr.cfg.N && !pr.slot(i).answer.names(pr.merged)
}

// late takes an answer to a parked read from a replica it waits for, once:
// a duplicate, a fallback's answer or the reply to a re-ask neither
// repairs anything nor ends the wait. A digest has nothing to fold in.
func (pr *pendingRead) late(ev *readEvent, w readWalk, from int) {
	if !pr.asked.has(from) || pr.refused.has(from) || pr.answered.has(from) {
		return
	}
	pr.slot(from).answer = ev.answer
	pr.answered.add(from)
	if pr.stale(from) {
		for _, e := range ev.answer.entries {
			pr.merged.add(e)
		}
		ev.emit(readStep{kind: stepRepair, target: w.node(from)})
	}
	if !pr.waiting() {
		ev.emit(readStep{kind: stepForget})
	}
}

// tick is the retry timer. Its first tick, at the hedge delay, asks the
// next node once. Each later one, RetryTimeout from the start and then at
// Backoff, re-asks every node that still owes an answer, in name order,
// and asks the next node for a suspected replica, within the policy's
// attempt budget. Once every fallback and every replica it does not
// suspect has been asked, a round also asks a replica skipped at the
// start for being suspected: the suspicion may be false, and nobody else
// is left.
func (pr *pendingRead) tick(ev *readEvent, w readWalk) {
	pol := pr.cfg.Resilience
	if !pr.hedged {
		pr.hedged = true
		if pol.HedgeQuantile > 0 {
			pr.askNext(ev, w, true)
		}
		ev.emit(readStep{kind: stepTick, delay: max(pol.RetryTimeout-pr.hedge, 0)})
		return
	}
	pr.attempt++
	if int(pr.attempt) >= pol.MaxAttempts {
		ev.emit(readStep{kind: stepSuppressed})
		return
	}
	for rest := pr.asked; rest != 0; { // those asked before the round
		i := w.firstByName(rest)
		rest.del(i)
		// i owes an answer to the ask that stands: it has not refused, and
		// has not answered, or with a digest where its values were asked for.
		if pr.refused.has(i) || pr.answered.has(i) && !(pr.slot(i).answer.digest && !pr.digest.has(i)) {
			continue
		}
		pr.ask(ev, w, i, pr.digest.has(i), readStep{retry: true})
		if i < len(w.prefs) && ev.sus.suspects(w.node(i), ev.now) {
			pr.askNext(ev, w, false)
		}
	}
	if int(pr.fi) == len(w.fallbacks) && pr.unasked(ev, w, false) == offWalk {
		pr.askNext(ev, w, false)
	}
	ev.emit(readStep{kind: stepTick, retry: true})
}

// merge folds the answers with values into pr.merged, so none of its
// entries lacks one, and returns as missing each responder whose digest
// names a dot merged does not cover: one that survives and that nobody
// sent. Both passes go in walk order, the preference list and then the
// fallbacks asked, so sibling order is a function of the seed.
func (pr *pendingRead) merge() (missing walkSet) {
	pr.merged.reset()
	for rest := pr.answered; rest != 0; rest &= rest - 1 {
		for _, e := range pr.slot(rest.first()).answer.entries {
			pr.merged.add(e)
		}
	}
	for rest := pr.answered; rest != 0; rest &= rest - 1 {
		i := rest.first()
		if slices.ContainsFunc(pr.slot(i).answer.dots, func(d clock.Dot) bool { return !pr.merged.covers(d) }) {
			missing.add(i)
		}
	}
	return missing
}
