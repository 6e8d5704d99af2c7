package chaos

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/quorum"
)

// The membership nemesis: an elastic quorum cluster in the simulator
// (core.Options.Elastic, which runs the quorum nodes' own membership
// protocol) goes through a join, a decommission and a second join, one
// after the other, under a steady stream of writes, while each change
// meets a fault chosen for it. Decisions made on what a node has or has
// not heard may cost a change time, never an acked write, so every seed
// must:
//
//   - keep the release rule: no gainer begins pulling an epoch before
//     every member of it has installed it;
//   - finish every change once its fault is healed;
//   - lose no acked write and converge: after the last change, every key
//     whose put was acked is held, alone, by each of the replicas the
//     final epoch names for it.
//
// A failure names its seed, and the subtest of that seed replays it.

const membershipSeeds = 64

// membershipFaults are the faults a change meets, one each, taken in turn
// from the seed.
var membershipFaults = []string{
	"lost broadcast",          // one member misses the coordinator's epoch
	"lost pull replies",       // the joiner, or a restarted survivor, hears no answer to its first pulls
	"crash in the ack phase",  // the coordinator dies between the ring acks and beginTransfer
	"gainer crash mid-range",  // a node dies while its ranges stream in
	"early pull reply",        // a member is cut off from the coordinator while the joiner pulls
	"partition or node crash", // one of the standard nemesis faults
}

func TestMembershipNemesis(t *testing.T) {
	for seed := int64(1); seed <= membershipSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			if log, err := runMembershipNemesis(seed); err != nil {
				t.Fatalf("seed %d: %v\nreplay: go test ./internal/chaos -run 'TestMembershipNemesis/seed=%d$'\n%s",
					seed, err, seed, log)
			}
		})
	}
}

// membershipRun is one seed's run.
type membershipRun struct {
	c       *core.Cluster
	rng     *rand.Rand
	members []string // the member set the changes so far call for
	left    []string // nodes that decommissioned
	joined  int      // nodes joined so far
	acked   []string // keys whose put was acked
	log     []string
	err     error
	done    bool // every acked key is where the final epoch puts it
}

func (r *membershipRun) logf(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf("%8v ", r.c.Now().Round(time.Millisecond))+fmt.Sprintf(format, args...))
}

func (r *membershipRun) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
		r.logf("FAIL: %v", r.err)
	}
}

func (r *membershipRun) node(id string) *quorum.Node { return r.c.QuorumNode(id) }

// pick returns a random element of ids other than those in not.
func (r *membershipRun) pick(ids []string, not ...string) string {
	var from []string
	for _, id := range ids {
		if !slices.Contains(not, id) {
			from = append(from, id)
		}
	}
	return from[r.rng.Intn(len(from))]
}

func (r *membershipRun) between(lo, hi time.Duration) time.Duration {
	return lo + time.Duration(r.rng.Int63n(int64(hi-lo)))
}

// crashFor takes id down now and brings it back after d.
func (r *membershipRun) crashFor(id string, d time.Duration) {
	sc := r.c.Sim()
	if !sc.Up(id) {
		return
	}
	sc.Crash(id)
	r.logf("crash %s for %v", id, d)
	r.c.After(d, func() { sc.Restart(id); r.logf("restart %s", id) })
}

// cutFor drops every message sent from any of from to any of to for d.
func (r *membershipRun) cutFor(from, to []string, d time.Duration) {
	sc := r.c.Sim()
	for _, a := range from {
		for _, b := range to {
			if a != b {
				sc.BlockLink(a, b)
			}
		}
	}
	r.c.After(d, func() {
		for _, a := range from {
			for _, b := range to {
				sc.UnblockLink(a, b)
			}
		}
	})
}

func runMembershipNemesis(seed int64) (string, error) {
	c := core.New(core.Options{Model: core.Quorum, Nodes: 4, Seed: seed, Elastic: true, ReadRepair: true, SloppyQuorum: true})
	defer c.Close()
	r := &membershipRun{c: c, rng: rand.New(rand.NewSource(seed)), members: c.Nodes()}

	// A put of a fresh key every 40 ms, through a random member.
	writer := c.NewClient("writer")
	writing := true
	var write func(i int)
	write = func(i int) {
		if !writing {
			return
		}
		key := fmt.Sprintf("key-%04d", i)
		writer.Prefer(r.pick(r.members))
		writer.Put(key, []byte(key), func(pr core.PutResult) {
			if pr.Err == nil {
				r.acked = append(r.acked, key)
			}
		})
		c.After(40*time.Millisecond, func() { write(i + 1) })
	}
	c.At(0, func() { write(0) })

	changes := []func(fault string) (subject, coord string){r.join, r.decommission, r.join}
	var change func(k int)
	change = func(k int) {
		if r.err != nil {
			return
		}
		if k == len(changes) {
			writing = false
			r.finish()
			return
		}
		fault := membershipFaults[(int(seed)+k)%len(membershipFaults)]
		subject, coord := changes[k](fault)
		if r.err != nil {
			return
		}
		seq := r.node(coord).Epoch().Seq
		start := c.Now()
		var watch func()
		watch = func() {
			if r.err != nil {
				return
			}
			r.checkRelease(seq)
			switch {
			case r.complete(seq):
				r.logf("epoch %d complete (%s)", seq, subject)
				c.After(300*time.Millisecond, func() { change(k + 1) })
			case c.Now()-start > 30*time.Second:
				r.fail("the change of %s (epoch %d) did not complete: %s", subject, seq, r.describe())
			default:
				c.After(2*time.Millisecond, watch)
			}
		}
		c.After(2*time.Millisecond, watch)
	}
	c.At(500*time.Millisecond, func() { change(0) })
	for r.err == nil && !r.done && c.Now() < 3*time.Minute {
		c.Run(c.Now() + 100*time.Millisecond)
	}
	if r.err == nil && !r.done {
		r.fail("the run ended before its changes did")
	}
	log := ""
	for _, l := range r.log {
		log += l + "\n"
	}
	return log, r.err
}

// join boots a new node and has a random member admit it, under fault.
func (r *membershipRun) join(fault string) (subject, coord string) {
	sc := r.c.Sim()
	id := fmt.Sprintf("node%d", 4+r.joined)
	r.joined++
	coord = r.pick(r.members)
	victim := r.pick(r.members, coord)
	r.logf("join %s through %s, under %s", id, coord, fault)
	switch fault {
	case "lost broadcast":
		sc.BlockLink(coord, victim)
		defer sc.UnblockLink(coord, victim)
	case "lost pull replies":
		r.cutFor(r.members, []string{id}, 10*time.Millisecond)
	case "early pull reply":
		r.cutFor([]string{coord}, []string{victim}, r.between(1500*time.Millisecond, 3*time.Second))
		r.cutFor([]string{victim}, []string{coord}, r.between(1500*time.Millisecond, 3*time.Second))
	}
	if err := r.c.Join(coord, id, nil); err != nil {
		r.fail("join %s through %s: %v", id, coord, err)
		return id, coord
	}
	r.members = append(r.members, id)
	r.during(fault, coord)
	return id, coord
}

// decommission has a random member leave, under fault.
func (r *membershipRun) decommission(fault string) (subject, coord string) {
	sc := r.c.Sim()
	id := r.pick(r.members)
	victim := r.pick(r.members, id)
	r.logf("decommission %s, under %s", id, fault)
	switch fault {
	case "lost broadcast":
		sc.BlockLink(id, victim)
		defer sc.UnblockLink(id, victim)
	case "lost pull replies":
		// A survivor restarts inside the window, and its first pulls go
		// unanswered.
		r.c.After(r.between(5*time.Millisecond, 50*time.Millisecond), func() {
			sc.Crash(victim)
			r.logf("crash %s", victim)
			r.c.After(300*time.Millisecond, func() {
				sc.Restart(victim)
				r.logf("restart %s, its pull replies lost", victim)
				r.cutFor(r.members, []string{victim}, 10*time.Millisecond)
			})
		})
	case "early pull reply":
		r.cutFor([]string{id}, []string{victim}, r.between(1500*time.Millisecond, 3*time.Second))
		r.cutFor([]string{victim}, []string{id}, r.between(1500*time.Millisecond, 3*time.Second))
	}
	if err := r.node(id).Decommission(sc.ClientEnv(id)); err != nil {
		r.fail("decommission %s: %v", id, err)
		return id, id
	}
	r.members = slices.DeleteFunc(r.members, func(m string) bool { return m == id })
	r.left = append(r.left, id)
	r.during(fault, id)
	return id, id
}

// during arranges the faults that strike after the change began.
func (r *membershipRun) during(fault, coord string) {
	switch fault {
	case "crash in the ack phase":
		r.c.After(r.between(2*time.Millisecond, 9*time.Millisecond), func() {
			r.crashFor(coord, r.between(300*time.Millisecond, 1500*time.Millisecond))
		})
	case "gainer crash mid-range":
		until := r.c.Now() + 5*time.Second
		var watch func()
		watch = func() {
			for _, id := range r.members {
				if id != coord && r.node(id).CatchingUp() {
					r.crashFor(id, r.between(100*time.Millisecond, time.Second))
					return
				}
			}
			if r.c.Now() < until {
				r.c.After(time.Millisecond, watch)
			}
		}
		r.c.After(time.Millisecond, watch)
	case "partition or node crash":
		nem := NewNemesis(r.c.Sim(), append(slices.Clone(r.members), r.left...), r.rng.Int63())
		f := []Fault{PartitionHalves(), IsolateOne(), CrashOne(), CrashMinority()}[r.rng.Intn(4)]
		r.c.After(r.between(0, 20*time.Millisecond), func() {
			nem.Inject(f)
			r.logf("%s", nem.Events[len(nem.Events)-1].Action)
		})
		r.c.After(r.between(300*time.Millisecond, 2*time.Second), func() {
			nem.Stop()
			r.logf("healed")
		})
	}
}

// checkRelease fails the run when a node pulls ranges of epoch seq while
// some member of it has not installed it.
func (r *membershipRun) checkRelease(seq uint64) {
	for _, id := range r.c.Nodes() {
		if _, total := r.node(id).CatchUpProgress(seq); total == 0 {
			continue
		}
		for _, m := range r.members {
			if got := r.node(m).Epoch().Seq; got < seq {
				r.fail("%s pulls ranges of epoch %d while member %s has installed only epoch %d", id, seq, m, got)
				return
			}
		}
	}
}

// complete reports whether the change to epoch seq is done: every member
// serves the settled epoch, and every node that left says so.
func (r *membershipRun) complete(seq uint64) bool {
	for _, id := range r.members {
		ep, st := r.node(id).State()
		if ep.Seq != seq || ep.Prev != nil || st != quorum.StateOK || !slices.Equal(ep.Ring.Members(), sorted(r.members)) {
			return false
		}
	}
	for _, id := range r.left {
		if _, st := r.node(id).State(); st != quorum.StateLeft {
			return false
		}
	}
	return true
}

func (r *membershipRun) describe() string {
	s := ""
	for _, id := range r.c.Nodes() {
		ep, st := r.node(id).State()
		done, total := r.node(id).CatchUpProgress(ep.Seq)
		s += fmt.Sprintf("[%s up=%v epoch=%d open=%v %s pulled %d/%d] ", id, r.c.Sim().Up(id), ep.Seq, ep.Prev != nil, st, done, total)
	}
	return s
}

// finish heals whatever is left and, once anti-entropy has had its
// rounds, checks every acked key on the replicas the final epoch names.
func (r *membershipRun) finish() {
	sc := r.c.Sim()
	sc.Heal()
	for _, id := range r.c.Nodes() {
		sc.Restart(id)
	}
	if len(r.acked) < 20 {
		r.fail("only %d puts were acked: too few for the check to mean anything", len(r.acked))
		return
	}
	deadline := r.c.Now() + 15*time.Second
	var check func()
	check = func() {
		key, holder, vals := r.unconverged()
		switch {
		case key == "":
			r.logf("%d acked writes held by every replica", len(r.acked))
			r.done = true
		case r.c.Now() > deadline:
			for _, id := range r.c.Nodes() {
				r.logf("%s holds %q", id, r.node(id).LocalValues(key))
			}
			r.fail("acked key %s: replica %s holds %q", key, holder, vals)
		default:
			r.c.After(500*time.Millisecond, check)
		}
	}
	r.c.After(time.Second, check)
}

// unconverged returns an acked key some final replica does not hold
// alone, with that replica and what it holds ("" when there is none).
func (r *membershipRun) unconverged() (key, holder string, vals []string) {
	for _, key := range r.acked {
		for _, rep := range r.node(r.members[0]).PreferenceList(key) {
			var got []string
			for _, v := range r.node(rep).LocalValues(key) {
				got = append(got, string(v))
			}
			if len(got) != 1 || got[0] != key {
				return key, rep, got
			}
		}
	}
	return "", "", nil
}

func sorted(ids []string) []string {
	out := slices.Clone(ids)
	slices.Sort(out)
	return out
}

// A seed replays: its run, event log and verdict included, is a function
// of the seed.
func TestMembershipNemesisReplays(t *testing.T) {
	for _, seed := range []int64{5, 38} {
		first, err1 := runMembershipNemesis(seed)
		again, err2 := runMembershipNemesis(seed)
		if first != again || fmt.Sprint(err1) != fmt.Sprint(err2) {
			t.Fatalf("seed %d ran two ways:\n%s(%v)\n---\n%s(%v)", seed, first, err1, again, err2)
		}
	}
}
