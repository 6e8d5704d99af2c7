package transport

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/resilience"
)

// zeroSource makes every jitter draw 0, so a backoff is exactly half its
// ceiling: 60ms, 120ms and 240ms for a request's three retries under the
// default policy.
type zeroSource struct{}

func (zeroSource) Int63() int64 { return 0 }
func (zeroSource) Seed(int64)   {}

// scriptEnv records what a Sender does, in the words of a script:
// "send n1", "timer 2 60ms", "cancel 1".
type scriptEnv struct {
	now   time.Duration
	rng   *rand.Rand
	did   []string
	timer TimerID
}

func (e *scriptEnv) ID() string                { return "c" }
func (e *scriptEnv) Now() time.Duration        { return e.now }
func (e *scriptEnv) Send(to string, _ Message) { e.did = append(e.did, "send "+to) }
func (e *scriptEnv) Cancel(id TimerID)         { e.did = append(e.did, fmt.Sprintf("cancel %d", id)) }
func (e *scriptEnv) Rand() *rand.Rand          { return e.rng }
func (e *scriptEnv) Domain() int               { return 0 }
func (e *scriptEnv) Heartbeats() bool          { return false }
func (e *scriptEnv) SetTimer(d time.Duration, tag any) TimerID {
	e.timer++
	e.did = append(e.did, fmt.Sprintf("timer %d %v", e.timer, d))
	if tag != (RetryTag{1}) {
		panic(fmt.Sprintf("timer tag %v, want RetryTag{1}", tag))
	}
	return e.timer
}

// TestSenderRule pins the retry and failover rule every client shares.
// Each script line is an event on request 1 ("send n0", "retry",
// "resend", "answer n1", "at 1s") and what the Sender did: its sends,
// timers and cancels, and "spent" or "not sent" when it reports so.
// Nodes are n0..n3, or fewer where a row says so; a row may open a
// node's breaker or have the failure detector suspect a node from the
// start, and ends with the breakers' states and the counters. Without a
// policy the Sender must store nothing.
func TestSenderRule(t *testing.T) {
	for _, tc := range []struct {
		name     string
		nodes    int
		open     string // a node whose breaker is open from the start
		suspect  string // a node the detector suspects from 1s on
		noPolicy bool
		script   []string
		breakers string
		counters string
	}{
		{name: "the first retry at RetryTimeout, later ones at Backoff", script: []string{
			"send n0 -> send n0, timer 1 400ms",
			"retry   -> send n1, timer 2 60ms",
			"retry   -> send n2, timer 3 120ms",
			"retry   -> send n3, timer 4 240ms",
			"retry   -> spent",
			"retry   -> ",
		}, breakers: "n0 closed, n1 closed, n2 closed, n3 closed",
			counters: "resilience.failovers=3 resilience.retries=3 resilience.suppressed=1"},
		{name: "a pick skips an open breaker and a suspected node", open: "n1", suspect: "n2", script: []string{
			"at 1s",
			"send n0 -> send n0, timer 1 400ms",
			"retry   -> send n3, timer 2 60ms",
		}, breakers: "n0 closed, n1 open, n2 closed, n3 closed",
			counters: "resilience.breaker_trips=1 resilience.failovers=1 resilience.retries=1"},
		{name: "a pick rotates when every node is skipped", nodes: 3, open: "n1", suspect: "n2", script: []string{
			"at 1s",
			"send n0 -> send n0, timer 1 400ms",
			"retry   -> send n1, timer 2 60ms",
		}, breakers: "n0 closed, n1 open, n2 closed",
			counters: "resilience.breaker_trips=1 resilience.failovers=1 resilience.retries=1"},
		{name: "a target's third silence trips its breaker", nodes: 1, script: []string{
			"send n0 -> send n0, timer 1 400ms",
			"retry   -> send n0, timer 2 60ms",
			"retry   -> send n0, timer 3 120ms",
			"retry   -> send n0, timer 4 240ms",
			"retry   -> spent",
		}, breakers: "n0 open",
			counters: "resilience.breaker_trips=1 resilience.retries=3 resilience.suppressed=1"},
		{name: "an answer credits the breaker and cancels the timer", open: "n1", script: []string{
			"send n1   -> send n1, timer 1 400ms",
			"answer n1 -> cancel 1",
			"retry     -> ",
		}, breakers: "n1 closed",
			counters: "resilience.breaker_trips=1"},
		{name: "the session's resend on a TimedOut answer fails over", script: []string{
			"send n0 -> send n0, timer 1 400ms",
			"resend  -> send n1, timer 2 60ms, cancel 1",
			"resend  -> send n2, timer 3 120ms, cancel 2",
			"resend  -> send n3, timer 4 240ms, cancel 3",
			"resend  -> cancel 4, not sent",
			"retry   -> ",
		}, breakers: "n1 closed, n2 closed, n3 closed",
			counters: "resilience.failovers=3 resilience.retries=3 resilience.suppressed=1"},
		{name: "a resend holds nothing against the target that answered", nodes: 1, script: []string{
			"send n0   -> send n0, timer 1 400ms",
			"resend    -> send n0, timer 2 60ms, cancel 1",
			"resend    -> send n0, timer 3 120ms, cancel 2",
			"resend    -> send n0, timer 4 240ms, cancel 3",
			"answer n0 -> cancel 4",
		}, breakers: "n0 closed",
			counters: "resilience.retries=3"},
		{name: "without a policy a request is sent once", noPolicy: true, script: []string{
			"send n0   -> send n0",
			"retry     -> ",
			"resend    -> not sent",
			"answer n0 -> ",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.nodes == 0 {
				tc.nodes = 4
			}
			counters := resilience.NewCounters()
			s := &Sender{Self: "c", Counters: counters}
			for i := 0; i < tc.nodes; i++ {
				s.Nodes = append(s.Nodes, "n"+strconv.Itoa(i))
			}
			if !tc.noPolicy {
				s.Policy = resilience.DefaultPolicy()
				s.Directory = resilience.NewDirectory(s.Policy)
			}
			if tc.open != "" {
				for i := 0; i < s.Policy.BreakerFailures; i++ {
					s.breaker(tc.open).Failure(0)
				}
			}
			if tc.suspect != "" {
				s.Directory.Observe(tc.suspect, "c", 0)
			}
			env := &scriptEnv{rng: rand.New(zeroSource{})}
			for _, line := range tc.script {
				event, want, _ := strings.Cut(line, "->")
				event, want = strings.TrimSpace(event), strings.TrimSpace(want)
				env.did = nil
				switch f := strings.Fields(event); f[0] {
				case "at":
					d, err := time.ParseDuration(f[1])
					if err != nil {
						t.Fatal(err)
					}
					env.now = d
					continue
				case "send":
					s.Send(env, 1, f[1], "m")
				case "retry":
					if s.Retry(env, 1) {
						env.did = append(env.did, "spent")
					}
				case "resend":
					if !s.Resend(env, 1) {
						env.did = append(env.did, "not sent")
					}
				case "answer":
					s.Answered(env, 1, f[1])
				}
				if got := strings.Join(env.did, ", "); got != want {
					t.Fatalf("%s -> %s, want %s", event, got, want)
				}
			}
			var breakers []string
			for _, n := range s.Nodes {
				if b, ok := s.breakers[n]; ok {
					breakers = append(breakers, n+" "+b.State().String())
				}
			}
			if got := strings.Join(breakers, ", "); got != tc.breakers {
				t.Errorf("breakers: %s, want %s", got, tc.breakers)
			}
			if got := counters.String(); got != tc.counters {
				t.Errorf("counters: %s, want %s", got, tc.counters)
			}
			if tc.noPolicy && (s.sent != nil || s.breakers != nil) {
				t.Errorf("a Sender without a policy stores %d requests, %d breakers", len(s.sent), len(s.breakers))
			}
		})
	}
}
