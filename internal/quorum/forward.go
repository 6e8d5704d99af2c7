package quorum

import (
	"time"

	"repro/internal/clock"
	"repro/internal/geo"
	"repro/internal/resilience"
	"repro/internal/transport"
)

// Sending a client operation to a coordinator. Two senders do it: a
// Client, the simulator's end client, and a Node, for the clients of its
// own process whose operation another node coordinates (CoordinatePut).
// Both run the same resilience code, requests, which neither keeps a copy
// of.
//
// The message is stored verbatim: every retry and hedge resends the
// identical bytes (same request id, same context), so a coordinator that
// gets it twice, or a second coordinator after a failover, derives the
// same dot from (sender, request id) and the write applies at most once
// (see clientDot). Reads are idempotent anyway, so every operation gets
// the full retry budget.

// sender is who sends and how: the sender's id (the failure detector's
// observer), the coordinators it may fail over to in order, how long it
// waits for an answer, and the resilience policy (normalized; nil sends
// each request once).
type sender struct {
	id        string
	nodes     []string
	timeout   time.Duration
	policy    *resilience.Policy
	counters  *resilience.Counters
	directory *resilience.Directory
}

// requests holds a sender's requests in flight, by request id, and the
// resilience state of the coordinators it sends them to. It is confined
// to the loop that sends them: a Client's, or the shard loop of a Node
// that issued the request ids.
type requests struct {
	pending  map[uint64]*request
	breakers map[string]*resilience.Breaker
	rtt      resilience.Latency
}

// request is one operation sent to a coordinator and not yet answered:
// the message, the key, a put's context (with the request id, it names
// the dot), the callback of its kind, a planned get's tier and staleness
// (see Plan) and, with a policy, its retry and hedge state.
type request struct {
	msg     transport.Message
	key     string
	ctx     clock.Vector
	put     func(transport.Env, PutResult)
	get     func(transport.Env, GetResult)
	tier    geo.Kind
	staleMs int64
	coord   string
	sent    time.Duration
	budget  *resilience.Budget
	hedged  bool
	retry   transport.TimerID
	hedge   transport.TimerID
}

// requestTag is the timer of request id: its answer's time-out, a
// retry or a hedge.
type requestTag struct {
	id   uint64
	kind uint8
}

const (
	tagTimeout uint8 = iota
	tagRetry
	tagHedge
)

func newRequests() requests {
	return requests{pending: make(map[uint64]*request), breakers: make(map[string]*resilience.Breaker)}
}

// send dispatches request id to coordinator. It arms the answer's
// time-out and, with a policy, the retry and hedge timers.
func (q *requests) send(env transport.Env, s sender, coordinator string, id uint64, r *request) {
	r.coord, r.sent = coordinator, env.Now()
	q.pending[id] = r
	env.SetTimer(s.timeout, requestTag{id, tagTimeout})
	env.Send(coordinator, r.msg)
	if s.policy == nil {
		return
	}
	r.budget = resilience.NewBudget(s.policy.MaxAttempts, true, s.counters)
	r.budget.Attempt()
	r.retry = env.SetTimer(s.policy.RetryTimeout, requestTag{id, tagRetry})
	if s.policy.HedgeQuantile > 0 && len(s.nodes) > 1 {
		r.hedge = env.SetTimer(q.rtt.HedgeDelay(s.policy), requestTag{id, tagHedge})
	}
}

// onTimer runs a timer send armed.
func (q *requests) onTimer(env transport.Env, s sender, t requestTag) {
	switch t.kind {
	case tagTimeout:
		q.settle(env, s, t.id, "", nil)
	case tagRetry:
		q.onRetryTimer(env, s, t.id)
	case tagHedge:
		q.onHedgeTimer(env, s, t.id)
	}
}

// onRetryTimer handles a silent coordinator: record the failure against
// its breaker, then (budget permitting) resend the request — to a
// different coordinator when one looks healthier.
func (q *requests) onRetryTimer(env transport.Env, s sender, id uint64) {
	o, ok := q.pending[id]
	if !ok {
		return
	}
	now := env.Now()
	q.breaker(s, o.coord).Failure(now)
	if !o.budget.Attempt() {
		return // the time-out will deliver the failure
	}
	next := q.pickCoordinator(s, now, o.coord)
	if next != o.coord {
		o.coord = next
		s.counters.Failover()
	}
	s.counters.Retry()
	env.Send(o.coord, o.msg)
	o.retry = env.SetTimer(s.policy.Backoff(o.budget.Attempts()-1, env.Rand()), requestTag{id, tagRetry})
}

// onHedgeTimer duplicates a slow request to a second coordinator without
// abandoning the first — whichever answers first wins (both answers are
// the same operation, so the loser finds nothing to settle).
func (q *requests) onHedgeTimer(env transport.Env, s sender, id uint64) {
	o, ok := q.pending[id]
	if !ok || o.hedged {
		return
	}
	alt := q.pickCoordinator(s, env.Now(), o.coord)
	if alt == o.coord {
		return
	}
	o.hedged = true
	s.counters.Hedge()
	env.Send(alt, o.msg)
}

// pickCoordinator returns the next coordinator after `avoid` in s.nodes
// order, skipping nodes whose breaker is open or that the failure
// detector suspects; if every candidate is skipped, plain rotation wins
// (some coordinator must be tried).
func (q *requests) pickCoordinator(s sender, now time.Duration, avoid string) string {
	if len(s.nodes) == 0 {
		return avoid
	}
	start := 0
	for i, n := range s.nodes {
		if n == avoid {
			start = i + 1
			break
		}
	}
	for i := 0; i < len(s.nodes); i++ {
		cand := s.nodes[(start+i)%len(s.nodes)]
		if cand == avoid {
			continue
		}
		if !q.breaker(s, cand).Allow(now) {
			continue
		}
		if s.directory != nil && s.directory.Suspects(s.id, cand, now) {
			continue
		}
		return cand
	}
	// All alternatives look unhealthy: rotate anyway.
	for i := 0; i < len(s.nodes); i++ {
		cand := s.nodes[(start+i)%len(s.nodes)]
		if cand != avoid {
			return cand
		}
	}
	return avoid
}

func (q *requests) breaker(s sender, node string) *resilience.Breaker {
	b, ok := q.breakers[node]
	if !ok {
		b = resilience.NewBreaker(s.policy, s.counters)
		q.breakers[node] = b
	}
	return b
}

// settle completes request id with its coordinator's answer, a putResp
// or a getResp from `from`, or with ErrNoResponse when answer is nil (its
// time-out). Only the first answer completes it: a hedge's or a retry's
// second finds nothing. An answer feeds the latency estimator, credits
// the responder's breaker and stops the timers.
func (q *requests) settle(env transport.Env, s sender, id uint64, from string, answer transport.Message) {
	r, ok := q.pending[id]
	if !ok {
		return
	}
	delete(q.pending, id)
	if r.budget != nil && answer != nil {
		q.rtt.Observe(env.Now() - r.sent)
		q.breaker(s, from).Success()
		env.Cancel(r.retry)
		env.Cancel(r.hedge)
	}
	switch m := answer.(type) {
	case putResp:
		if r.put != nil {
			r.put(env, putResult(r.key, m))
		}
	case getResp:
		if r.get != nil {
			r.get(env, getResult(r.key, m, r.tier, r.staleMs))
		}
	default:
		if r.put != nil {
			// Unanswered is not unapplied, and the dot is the one the
			// coordinator would have derived: the context returned covers
			// the write all the same.
			w := clock.DVV{Dot: clientDot(s.id, id, r.ctx), Context: r.ctx}
			r.put(env, PutResult{Key: r.key, Context: w.Join(clock.DVV{}), Err: ErrNoResponse})
		} else {
			r.get(env, GetResult{Key: r.key, Err: ErrNoResponse})
		}
	}
}

// sender is how the node forwards: as itself, failing over across the
// current members.
func (n *Node) sender() sender {
	return sender{id: n.id, nodes: n.members(), timeout: requestTimeout, policy: n.cfg.Resilience,
		counters: n.cfg.Counters, directory: n.cfg.Directory}
}
