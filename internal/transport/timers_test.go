package transport

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// firedLog records the tags OnTimer fires, on any domain, in order.
type firedLog struct {
	noopHandler
	mu    sync.Mutex
	fired []any
}

func (h *firedLog) OnTimer(env Env, tag any) {
	h.mu.Lock()
	h.fired = append(h.fired, tag)
	h.mu.Unlock()
}

func (h *firedLog) tags() []any {
	h.mu.Lock()
	defer h.mu.Unlock()
	return slices.Clone(h.fired)
}

// shardedLog is a firedLog with two shard loops besides the serial one.
type shardedLog struct{ firedLog }

func (*shardedLog) Shards() int             { return 2 }
func (*shardedLog) ShardOf(msg Message) int { return -1 }

// everyDomain is the serial loop and both shards of a shardedLog.
var everyDomain = []int{-1, 0, 1}

// set sets one timer per tag on every domain of node n, all in one
// invocation per domain, and returns their ids by domain.
func set(t *testing.T, rt *Runtime, d time.Duration, tags ...string) map[int][]TimerID {
	t.Helper()
	ids := make(map[int][]TimerID)
	for _, dom := range everyDomain {
		done := make(chan []TimerID)
		if !rt.InvokeShard("n", dom, func(env Env) {
			var got []TimerID
			for _, tag := range tags {
				got = append(got, env.SetTimer(d, tag))
			}
			done <- got
		}) {
			t.Fatal("node n is gone")
		}
		ids[dom] = <-done
	}
	return ids
}

// quietly waits long enough for a timer that should not fire to do so,
// then returns what fired.
func quietly(h *firedLog) []any {
	time.Sleep(50 * time.Millisecond)
	return h.tags()
}

func count(tags []any, tag string) (n int) {
	for _, t := range tags {
		if t == tag {
			n++
		}
	}
	return n
}

// Timers fire in deadline order, whatever order they were set in, on
// every execution domain.
func TestTimersFireInDeadlineOrder(t *testing.T) {
	rt := NewRuntime(1)
	defer rt.Close()
	h := &shardedLog{}
	rt.AddNode("n", h)
	for _, dom := range everyDomain {
		rt.InvokeShard("n", dom, func(env Env) {
			for _, ms := range []int{50, 10, 40, 20, 30} {
				env.SetTimer(time.Duration(ms)*time.Millisecond, ms)
			}
		})
		waitFor(t, 5*time.Second, func() bool { return len(h.tags()) == 5 }, "five timers")
		got := h.tags()
		if want := []any{10, 20, 30, 40, 50}; !slices.Equal(got, want) {
			t.Fatalf("domain %d fired %v, want %v", dom, got, want)
		}
		h.mu.Lock()
		h.fired = nil
		h.mu.Unlock()
	}
}

// A cancelled timer never fires; the others still do. Cancelling a timer
// that already fired is a no-op, even when a later timer took its place.
func TestCancelledTimerNeverFires(t *testing.T) {
	rt := NewRuntime(1)
	defer rt.Close()
	h := &shardedLog{}
	rt.AddNode("n", h)
	ids := set(t, rt, 100*time.Millisecond, "keep", "cancel-a", "cancel-b")
	for _, dom := range everyDomain {
		rt.InvokeShard("n", dom, func(env Env) {
			env.Cancel(ids[dom][1])
			env.Cancel(ids[dom][2])
			env.Cancel(ids[dom][2]) // twice
		})
	}
	waitFor(t, 5*time.Second, func() bool { return count(h.tags(), "keep") == 3 }, "one keep per domain")
	if got := quietly(&h.firedLog); len(got) != 3 {
		t.Fatalf("fired %v, want one keep per domain and nothing cancelled", got)
	}

	stale := ids // every timer of these fired or was cancelled
	set(t, rt, 100*time.Millisecond, "later")
	for _, dom := range everyDomain {
		rt.InvokeShard("n", dom, func(env Env) {
			for _, id := range stale[dom] {
				env.Cancel(id)
			}
		})
	}
	waitFor(t, 5*time.Second, func() bool { return count(h.tags(), "later") == 3 },
		"the timers that reused the slots of spent ids, which cancelling those ids must not touch")
}

// A crash drops every pending timer on every domain, and a timer set
// after the restart fires.
func TestCrashDropsTimersAndARestartSetsNew(t *testing.T) {
	rt := NewRuntime(1)
	defer rt.Close()
	h := &shardedLog{}
	rt.AddNode("n", h)
	set(t, rt, 30*time.Millisecond, "before-crash", "also-before-crash")
	rt.crash("n")
	rt.restart("n")
	time.Sleep(100 * time.Millisecond)
	if got := h.tags(); len(got) != 0 {
		t.Fatalf("timers set before the crash fired: %v", got)
	}
	set(t, rt, time.Millisecond, "after-restart")
	waitFor(t, 5*time.Second, func() bool { return len(h.tags()) == 3 }, "a timer per domain after the restart")
	if got := quietly(&h.firedLog); count(got, "after-restart") != 3 || len(got) != 3 {
		t.Fatalf("fired %v, want after-restart once per domain", got)
	}
}

// Stats.TimersFired counts every OnTimer the runtime ran.
func TestStatsCountTimersFired(t *testing.T) {
	rt := NewRuntime(1)
	defer rt.Close()
	h := &shardedLog{}
	rt.AddNode("n", h)
	ids := set(t, rt, 5*time.Millisecond, "a", "b")
	rt.InvokeShard("n", 0, func(env Env) { env.Cancel(ids[0][0]) })
	waitFor(t, 5*time.Second, func() bool { return len(h.tags()) == 5 }, "five timers")
	if got := quietly(&h.firedLog); len(got) != 5 {
		t.Fatalf("fired %v, want five timers", got)
	}
	if n := rt.Stats().TimersFired; n != 5 {
		t.Fatalf("Stats().TimersFired = %d, want 5", n)
	}
}

// Setting, cancelling and firing a timer allocate nothing once the
// domain's heap has grown: the tag is the caller's.
func TestSetTimerAllocatesNothing(t *testing.T) {
	var now time.Duration
	tm := newTimers(func() time.Duration { return now }, newMailbox())
	defer tm.stop()
	var tag any = "tag"
	ids := make([]TimerID, 64)
	cycle := func() {
		for i := range ids {
			ids[i] = tm.set(time.Duration(i%7)*time.Hour, tag)
		}
		for i := 0; i < len(ids); i += 2 {
			tm.cancel(ids[i])
		}
		now += 7 * time.Hour
		tm.fire(func(any) {})
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("64 sets, 32 cancels and 32 fires: %v allocs, want 0", allocs)
	}
}

// The heap hands timers out in (deadline, set order), under any mix of
// sets, cancels and fires: checked against a sorted list.
func TestTimerHeapMatchesASortedList(t *testing.T) {
	var now time.Duration
	tm := newTimers(func() time.Duration { return now }, newMailbox())
	defer tm.stop()
	type ref struct {
		at  time.Duration
		seq int
		id  TimerID
	}
	var pending []ref // sorted by (at, seq)
	rng := rand.New(rand.NewSource(1))
	seq := 0
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 5:
			d := time.Duration(rng.Intn(20)) * time.Millisecond
			seq++
			r := ref{at: now + d, seq: seq}
			r.id = tm.set(d, seq)
			i, _ := slices.BinarySearchFunc(pending, r, func(a, b ref) int {
				if a.at != b.at {
					return int(a.at - b.at)
				}
				return a.seq - b.seq
			})
			pending = slices.Insert(pending, i, r)
		case op < 7 && len(pending) > 0:
			i := rng.Intn(len(pending))
			tm.cancel(pending[i].id)
			pending = slices.Delete(pending, i, i+1)
		default:
			now += time.Duration(rng.Intn(5)) * time.Millisecond
			tm.fire(func(tag any) {
				if len(pending) == 0 || pending[0].seq != tag.(int) {
					t.Fatalf("step %d: heap fired timer %v, want %v", step, tag, pending)
				}
				pending = pending[1:]
			})
			if len(pending) > 0 && pending[0].at <= now {
				t.Fatalf("step %d: timer %d due at %v not fired at %v", step, pending[0].seq, pending[0].at, now)
			}
		}
	}
}
