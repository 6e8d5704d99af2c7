package quorum

import (
	"slices"
	"time"

	"repro/internal/clock"
	"repro/internal/geo"
	"repro/internal/resilience"
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
// node's failure detector.
type readEvent struct {
	kind   readEventKind
	from   string
	answer readAnswer
	now    time.Duration
	sus    detector
}

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
func (a readAnswer) names(merged *clock.Siblings[record]) bool {
	if a.digest {
		return len(a.dots) == merged.Len() && !slices.ContainsFunc(a.dots, func(d clock.Dot) bool { return !merged.Has(d) })
	}
	return len(a.entries) == merged.Len() &&
		!slices.ContainsFunc(a.entries, func(e clock.SiblingEntry[record]) bool { return !merged.Has(e.DVV.Dot) })
}

// ask is a read's ask of one node: whether the ask that stands is for a
// digest (a re-ask in full clears it), whether the node refused, and when
// it was first asked, which its first answer times a round trip from.
type ask struct {
	digest, refused bool
	at              time.Duration
}

// pendingRead is a read from its start until it is forgotten: in flight
// in its shard's reads, then, if it answered while replicas it asked had
// not, parked in the shard's repairs.
type pendingRead struct {
	client     string
	reply      func(transport.Env, GetResult) // see pendingWrite.reply
	id         uint64
	key        string
	tier       geo.Kind // a read in this process: its plan's tier and staleness, for its result
	staleMs    int64
	timer      transport.TimerID // the deadline
	retryTimer transport.TimerID // the retry timer

	// Fixed at the start: the coordinator, its walk, the answers needed,
	// whether it holds a replica (then it alone is asked for values),
	// whether it repairs, its policy (nil: no retries) and hedge delay.
	self                string
	replicas, fallbacks []string
	needed              int
	digests, repair     bool
	pol                 *resilience.Policy
	hedge               time.Duration

	// Everyone asked, the answers counted, the next unused fallback, the
	// hedge fired, the retransmission rounds spent, the client answered,
	// and the merged set (see merge).
	asked        map[string]ask
	responses    map[string]readAnswer
	fi, attempt  int
	hedged, done bool
	merged       clock.Siblings[record]

	// Reused across events, so that step allocates nothing.
	steps   []readStep
	stepBuf [4]readStep
	scratch []string // merge's missing; nodes in sorted order
}

// step takes one event and returns the steps that follow, in the order
// the node carries them out; the slice is valid until the next call. A
// refusal settles the refuser's ask: it does not count toward R, is not
// asked again and is not waited for, and the next node is asked in its
// place. At the deadline a read in flight fails with what its
// value-bearing answers merge to, and a parked one is forgotten.
func (pr *pendingRead) step(ev readEvent) []readStep {
	pr.steps = pr.stepBuf[:0]
	switch {
	case ev.kind == evStart:
		pr.start(ev)
	case ev.kind == evAnswer && pr.done:
		pr.late(ev.from, ev.answer)
	case ev.kind == evAnswer:
		pr.answer(ev)
	case ev.kind == evRefusal:
		q := pr.asked[ev.from]
		q.refused = true
		pr.asked[ev.from] = q
		if !pr.done {
			pr.askNext(ev, false)
		} else if !pr.waiting() {
			pr.emit(readStep{kind: stepForget})
		}
	case ev.kind == evTick && !pr.done:
		pr.tick(ev)
	case ev.kind == evDeadline && !pr.done:
		pr.merge()
		pr.finish(true)
	case ev.kind == evDeadline:
		pr.emit(readStep{kind: stepForget})
	}
	return pr.steps
}

func (pr *pendingRead) emit(s readStep) { pr.steps = append(pr.steps, s) }

// start asks R nodes. A coordinator in the key's preference list asks its
// own replica in full and the first R−1 other replicas it does not
// suspect for digests; one outside the list asks the first R it does not
// suspect, in full; askNext makes up a shortfall. A read without a policy
// asks all N at once and the fastest R answers win (the race E2
// quantifies).
func (pr *pendingRead) start(ev readEvent) {
	others := len(pr.replicas) // a policy-less read asks them all
	if pr.pol != nil {
		others = pr.needed
	}
	if pr.digests {
		others-- // its own replica is asked whatever else is
	}
	for _, rep := range pr.replicas {
		if rep == pr.self {
			pr.ask(ev, rep, false, readStep{})
		} else if others > 0 && (pr.pol == nil || !ev.sus.suspects(rep, ev.now)) {
			pr.ask(ev, rep, pr.digests, readStep{})
			others--
		}
	}
	for ; others > 0 && pr.askNext(ev, false); others-- {
	}
	pr.emit(readStep{kind: stepDeadline})
	if pr.pol != nil {
		pr.emit(readStep{kind: stepTick, delay: pr.hedge})
	}
}

// askNext asks one more node: the first replica not yet asked and not
// suspected, else the next fallback, else the first replica not yet
// asked. It reports whether anyone was left.
func (pr *pendingRead) askNext(ev readEvent, hedge bool) bool {
	next := pr.unasked(ev, false)
	if next == "" && pr.fi < len(pr.fallbacks) {
		next = pr.fallbacks[pr.fi]
		pr.fi++
	}
	if next == "" {
		next = pr.unasked(ev, true)
	}
	if next != "" {
		pr.ask(ev, next, pr.digests && next != pr.self, readStep{hedge: hedge})
	}
	return next != ""
}

// unasked returns the first replica not yet asked, skipping those the node
// suspects unless suspectsToo, or "" if there is none.
func (pr *pendingRead) unasked(ev readEvent, suspectsToo bool) string {
	for _, rep := range pr.replicas {
		if _, ok := pr.asked[rep]; !ok && (suspectsToo || !ev.sus.suspects(rep, ev.now)) {
			return rep
		}
	}
	return ""
}

// ask asks target, for a digest or in full, and records which ask now
// stands; why carries the ask's hedge or retry mark.
func (pr *pendingRead) ask(ev readEvent, target string, digest bool, why readStep) {
	a, ok := pr.asked[target]
	if !ok {
		a.at = ev.now
	}
	a.digest = digest
	pr.asked[target] = a
	why.kind, why.target, why.digest = stepAsk, target, digest
	pr.emit(why)
}

// waiting reports whether a replica the read asked has neither answered
// nor refused: what a read that answered parks for.
func (pr *pendingRead) waiting() bool {
	return slices.ContainsFunc(pr.replicas, func(rep string) bool {
		_, answered := pr.responses[rep]
		q, asked := pr.asked[rep]
		return asked && !q.refused && !answered
	})
}

// answer counts an answer. A read completes on R answers of which every
// dot surviving the merge of their clocks has its value; a digest naming
// a surviving dot nobody sent is asked again in full, once.
func (pr *pendingRead) answer(ev readEvent) {
	have, answered := pr.responses[ev.from]
	if answered && !have.digest && ev.answer.digest {
		return // a straggling digest does not displace the values already here
	}
	if q, ok := pr.asked[ev.from]; ok && !answered && ev.from != pr.self {
		pr.emit(readStep{kind: stepObserve, delay: ev.now - q.at})
	}
	pr.responses[ev.from] = ev.answer
	if len(pr.responses) < pr.needed {
		return
	}
	if _, missing := pr.merge(); len(missing) == 0 {
		pr.finish(false)
	} else {
		for _, node := range missing {
			if pr.asked[node].digest {
				pr.ask(ev, node, false, readStep{})
			}
		}
	}
}

// finish answers the client: repairs first, sorted so that the sends
// interleave deterministically, then park or forget, then the answer.
func (pr *pendingRead) finish(failed bool) {
	pr.done = true
	then := stepForget
	if pr.repair && !failed {
		pr.scratch = pr.scratch[:0]
		for rep, a := range pr.responses {
			if pr.stale(rep, a) {
				pr.scratch = append(pr.scratch, rep)
			}
		}
		slices.Sort(pr.scratch)
		for _, rep := range pr.scratch {
			pr.emit(readStep{kind: stepRepair, target: rep})
		}
		if pr.waiting() {
			then = stepPark
		}
	}
	pr.emit(readStep{kind: then})
	pr.emit(readStep{kind: stepAnswer, failed: failed})
}

// stale is the repair rule: rep is a replica of the key (a fallback reader
// is not, and the read path never consults it again) and its answer a
// does not name the merged set.
func (pr *pendingRead) stale(rep string, a readAnswer) bool {
	return slices.Contains(pr.replicas, rep) && !a.names(&pr.merged)
}

// late takes an answer to a parked read from a replica it waits for, once:
// a duplicate, a fallback's answer or the reply to a re-ask neither
// repairs anything nor ends the wait. A digest has nothing to fold in.
func (pr *pendingRead) late(from string, a readAnswer) {
	_, answered := pr.responses[from]
	if q, ok := pr.asked[from]; !ok || q.refused || answered {
		return
	}
	pr.responses[from] = a
	if pr.stale(from, a) {
		for _, e := range a.entries {
			pr.merged.Add(e.DVV, e.Value)
		}
		pr.emit(readStep{kind: stepRepair, target: from})
	}
	if !pr.waiting() {
		pr.emit(readStep{kind: stepForget})
	}
}

// tick is the retry timer. Its first tick, at the hedge delay, asks the
// next node once. Each later one, RetryTimeout from the start and then at
// Backoff, re-asks every node that still owes an answer and asks the next
// node for a suspected replica, within the policy's attempt budget. Once
// every fallback and every replica it does not suspect has been asked, a
// round also asks a replica skipped at the start for being suspected:
// the suspicion may be false, and nobody else is left.
func (pr *pendingRead) tick(ev readEvent) {
	if !pr.hedged {
		pr.hedged = true
		if pr.pol.HedgeQuantile > 0 {
			pr.askNext(ev, true)
		}
		pr.emit(readStep{kind: stepTick, delay: max(pr.pol.RetryTimeout-pr.hedge, 0)})
		return
	}
	pr.attempt++
	if pr.attempt >= pr.pol.MaxAttempts {
		pr.emit(readStep{kind: stepSuppressed})
		return
	}
	pr.scratch = pr.scratch[:0]
	for t := range pr.asked {
		pr.scratch = append(pr.scratch, t)
	}
	slices.Sort(pr.scratch)
	for _, t := range pr.scratch {
		// t owes an answer to the ask that stands: it has not refused, and
		// has not answered, or with a digest where its values were asked for.
		a, answered := pr.responses[t]
		if q := pr.asked[t]; q.refused || answered && !(a.digest && !q.digest) {
			continue
		}
		pr.ask(ev, t, pr.asked[t].digest, readStep{retry: true})
		if slices.Contains(pr.replicas, t) && ev.sus.suspects(t, ev.now) {
			pr.askNext(ev, false)
		}
	}
	if pr.fi == len(pr.fallbacks) && pr.unasked(ev, false) == "" {
		pr.askNext(ev, false)
	}
	pr.emit(readStep{kind: stepTick, retry: true})
}

// merge folds the answers with values into pr.merged, so none of its
// entries lacks one, and puts in missing each responder whose digest names
// a dot merged does not cover: one that survives and that nobody sent.
// Both passes walk the preference list, then the fallbacks asked, so
// sibling order is a function of the seed. missing lasts until the next
// event.
func (pr *pendingRead) merge() (merged *clock.Siblings[record], missing []string) {
	merged = &pr.merged
	merged.Reset()
	walk := [2][]string{pr.replicas, pr.fallbacks[:pr.fi]}
	for _, nodes := range walk {
		for _, node := range nodes {
			for _, e := range pr.responses[node].entries {
				merged.Add(e.DVV, e.Value)
			}
		}
	}
	missing = pr.scratch[:0]
	for _, nodes := range walk {
		for _, node := range nodes {
			if a := pr.responses[node]; slices.ContainsFunc(a.dots, func(d clock.Dot) bool { return !merged.Covers(d) }) {
				missing = append(missing, node)
			}
		}
	}
	pr.scratch = missing
	return merged, missing
}
