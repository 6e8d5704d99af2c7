package quorum

import (
	"math/bits"
	"slices"
	"time"

	"repro/internal/clock"
	"repro/internal/ring"
	"repro/internal/transport"
)

// A quorum write is one decision function, pendingWrite.step: it takes an
// event of the write (start, ack, not-owner refusal, retry tick, deadline)
// and returns the steps that follow (sends, installs, timers, counts,
// forget, the answer). The node carries events in and steps out
// (coordinatePut, onWrite). step sends nothing and reads no clock, so a
// test drives a write without a transport. Each rule is written once, on
// the function that applies it: whom to send to (start), which acks
// count (ack), when a fallback stands in (engage), when to retransmit
// (retransmit) and when to fail (deadline).

type writeEventKind uint8

const (
	wrStart    writeEventKind = iota // from is the coordinator
	wrAck                            // from acked the write's replicaPut
	wrRefusal                        // from does not own the key (replicaNotOwner)
	wrTick                           // the retry timer: a retransmission round
	wrDeadline                       // the quorum time-out
)

// writeEvent is one event of a write, with the time it happened and the
// node's failure detector. steps is the buffer the steps that follow are
// appended to: the node hands back the one the last call returned, so
// that step allocates nothing.
type writeEvent struct {
	kind  writeEventKind
	from  string
	now   time.Duration
	sus   detector
	steps []writeStep
}

func (ev *writeEvent) emit(s writeStep) { ev.steps = append(ev.steps, s) }

type writeStepKind uint8

const (
	wstepGeo         writeStepKind = iota // hand the version to the geo replicator for to
	wstepSend                             // send the replicaPut to the replica to (again, when retry)
	wstepHint                             // send it to the fallback to, standing in for hint
	wstepDual                             // send it to to, a previous owner, as an unacked repair
	wstepInstall                          // install it on the coordinator's own replica, counted
	wstepDualInstall                      // install it there, uncounted: the coordinator is a previous owner
	wstepDeadline                         // arm the quorum time-out
	wstepTick                             // arm the retry timer: at RetryTimeout, or at the backoff when retry
	wstepSuppressed                       // the attempt budget is spent
	wstepForget                           // drop the write and cancel both its timers
	wstepAnswer                           // answer the client: ok, or failed
)

type writeStep struct {
	kind          writeStepKind
	retry, failed bool
	to, hint      string
}

// walkSet is a set of indexes into a write's walk: its preferences at
// 0..N−1, then its fallbacks. N is at most 32 (Config.Validate) and a
// write engages at most one fallback per preference, so 64 bits hold them.
type walkSet uint64

func (s walkSet) has(i int) bool { return s&(1<<i) != 0 }
func (s *walkSet) add(i int)     { *s |= 1 << i }
func (s walkSet) len() int       { return bits.OnesCount64(uint64(s)) }

// pendingWrite is a write from its start until it is answered. It does
// not keep its walk: step cuts it again from the epoch the write started
// under (Config.placement), a slice of that epoch's shared walk.
type pendingWrite struct {
	client     string
	reply      func(transport.Env, PutResult) // the answer's call when client is in this process (see answerPut)
	id         uint64                         // the client's request id, which the answer carries
	key        string
	entry      clock.SiblingEntry[record]
	cfg        *Config
	ep         *ring.Epoch
	timer      transport.TimerID // the quorum time-out
	retryTimer transport.TimerID

	// The walk indexes that acked (the coordinator's own install among
	// them), the preferences that have a stand-in, and those the write does
	// not wait for: left to the geo replicator at the start, or refusers.
	acked, hinted, excused walkSet
	attempt                uint16 // retransmission rounds spent
	needed                 uint8  // W, or the sub-quorum in the coordinator's zone
	fi                     uint8  // fallbacks engaged: the walk's next unused one is N+fi
	sloppy                 bool   // a fallback was engaged (PutResult.Sloppy)
	fbTried                bool   // the first quorum time-out has engaged its stand-ins
	done                   bool
}

// step takes one event and returns the steps that follow, in the order
// the node carries them out; the slice is valid until the next call. A
// not-owner refusal settles the refuser's share of the write and takes no
// step: the refuser is not resent to, gets no stand-in and counts no ack,
// since its refusal says the coordinator's ring is stale (the node pulls
// the ring, onNotOwner). The write answers on W acks from the others, or
// fails at its deadline.
func (pw *pendingWrite) step(ev writeEvent) []writeStep {
	ev.steps = ev.steps[:0]
	prefs, fallbacks := pw.cfg.placement(pw.ep, pw.key)
	if !pw.cfg.SloppyQuorum {
		fallbacks = nil
	}
	switch {
	case pw.done:
	case ev.kind == wrStart:
		pw.start(&ev, prefs, fallbacks)
	case ev.kind == wrAck:
		pw.ack(&ev, prefs, fallbacks)
	case ev.kind == wrRefusal:
		if i := slices.Index(prefs, ev.from); i >= 0 {
			pw.excused.add(i)
		}
	case ev.kind == wrTick:
		pw.retransmit(&ev, prefs, fallbacks)
	case ev.kind == wrDeadline:
		pw.deadline(&ev, prefs, fallbacks)
	}
	return ev.steps
}

// start sends the write. The send set is the preferences, minus the
// geo-async ones, plus, while a transfer window is open, the previous
// epoch's owners that fell out of the preference list. Under GeoAsync the
// preferences outside the coordinator's zone are left to the replicator
// (see geo.go) and the quorum shrinks to min(W, in-zone replicas); the
// coordinator counts as in its zone, and with no preference in it the
// write is synchronous everywhere. Dual-apply keeps reads that fall back
// to the previous owners fresh, and an aborted transfer without a gap: its
// sends are unacked repairs, and the quorum is counted on the current
// epoch's replicas. The coordinator does not message itself: it installs
// in place, after the sends, and counts its own ack. A replica the
// failure detector suspects gets a stand-in at once.
func (pw *pendingWrite) start(ev *writeEvent, prefs, fallbacks []string) {
	cfg := pw.cfg
	for i, rep := range prefs {
		if cfg.GeoAsync && rep != ev.from && pw.ep.Ring.ZoneOf(rep) != cfg.Zone {
			pw.excused.add(i)
		}
	}
	if pw.excused.len() == len(prefs) {
		pw.excused = 0
	}
	pw.needed = uint8(min(cfg.W, len(prefs)-pw.excused.len()))
	self := -1
	for i, rep := range prefs {
		switch {
		case pw.excused.has(i):
			ev.emit(writeStep{kind: wstepGeo, to: rep})
		case rep == ev.from:
			self = i
		default:
			ev.emit(writeStep{kind: wstepSend, to: rep})
			if cfg.Resilience != nil && cfg.SloppyQuorum && ev.sus.suspects(rep, ev.now) {
				pw.engage(ev, i, prefs, fallbacks)
			}
		}
	}
	if prev := pw.ep.Prev; prev != nil && cfg.Placement != nil {
		for _, old := range prev.Replicas(pw.key, cfg.N) {
			switch {
			case slices.Contains(prefs, old):
			case old == ev.from:
				ev.emit(writeStep{kind: wstepDualInstall})
			default:
				ev.emit(writeStep{kind: wstepDual, to: old})
			}
		}
	}
	if self >= 0 {
		ev.emit(writeStep{kind: wstepInstall})
		if pw.count(ev, self); pw.done {
			return
		}
	}
	ev.emit(writeStep{kind: wstepDeadline})
	if cfg.Resilience != nil {
		ev.emit(writeStep{kind: wstepTick})
	}
}

// owes reports whether preference i is sent to synchronously and has
// neither acked nor refused.
func (pw *pendingWrite) owes(i int) bool { return !pw.acked.has(i) && !pw.excused.has(i) }

// ack is the counting rule: each distinct node the write sent to counts
// once. A preference and the fallback that stands in for it count as two,
// so a write may answer on both while another preference never acked:
// the asymmetry that counting the quorum on one placement, or a read's
// write-back that waits for W acks, would revisit. An ack from a node the
// write never sent to, a geo-async preference among them, or from a
// refuser counts nothing.
func (pw *pendingWrite) ack(ev *writeEvent, prefs, fallbacks []string) {
	if i := slices.Index(prefs, ev.from); i >= 0 && !pw.excused.has(i) {
		pw.count(ev, i)
	} else if i := slices.Index(fallbacks[:pw.fi], ev.from); i >= 0 {
		pw.count(ev, len(prefs)+i)
	}
}

// count records the ack of walk index i, and answers on the needed acks.
func (pw *pendingWrite) count(ev *writeEvent, i int) {
	if pw.acked.add(i); pw.acked.len() >= int(pw.needed) {
		pw.finish(ev, false)
	}
}

// engage is the fallback rule: the next unused fallback stands in for
// preference i, with a hint naming it. A preference gets at most one
// stand-in, and a fallback stands in for one preference. Its callers say
// when: a suspected preference at the start and at a retransmission
// round, and every preference that owes an ack at the first time-out.
func (pw *pendingWrite) engage(ev *writeEvent, i int, prefs, fallbacks []string) {
	if pw.hinted.has(i) || int(pw.fi) >= len(fallbacks) {
		return
	}
	pw.hinted.add(i)
	pw.sloppy = true
	ev.emit(writeStep{kind: wstepHint, to: fallbacks[pw.fi], hint: prefs[i]})
	pw.fi++
}

// retransmit is the retransmission rule, at each retry tick: within the
// policy's attempt budget, resend to every preference that owes an ack (a
// stand-in is not resent to), engage a stand-in for each of them the
// failure detector now suspects, and back off before the next round.
func (pw *pendingWrite) retransmit(ev *writeEvent, prefs, fallbacks []string) {
	if pw.attempt++; int(pw.attempt) >= pw.cfg.Resilience.MaxAttempts {
		ev.emit(writeStep{kind: wstepSuppressed})
		return
	}
	for i, rep := range prefs {
		if pw.owes(i) {
			ev.emit(writeStep{kind: wstepSend, to: rep, retry: true})
			if pw.cfg.SloppyQuorum && ev.sus.suspects(rep, ev.now) {
				pw.engage(ev, i, prefs, fallbacks)
			}
		}
	}
	ev.emit(writeStep{kind: wstepTick, retry: true})
}

// deadline is the failure rule. Under a sloppy quorum the first time-out
// engages a stand-in for every preference that owes an ack and, if the
// write has a stand-in now or had one before, waits one more time-out.
// Otherwise, or at that second time-out, the write fails.
func (pw *pendingWrite) deadline(ev *writeEvent, prefs, fallbacks []string) {
	if !pw.fbTried && len(fallbacks) > 0 {
		pw.fbTried = true
		for i := range prefs {
			if pw.owes(i) {
				pw.engage(ev, i, prefs, fallbacks)
			}
		}
		if pw.sloppy {
			ev.emit(writeStep{kind: wstepDeadline})
			return
		}
	}
	pw.finish(ev, true)
}

// finish forgets the write, then answers its client.
func (pw *pendingWrite) finish(ev *writeEvent, failed bool) {
	pw.done = true
	ev.emit(writeStep{kind: wstepForget})
	ev.emit(writeStep{kind: wstepAnswer, failed: failed})
}
