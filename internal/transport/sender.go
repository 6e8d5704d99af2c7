package transport

import (
	"time"

	"repro/internal/resilience"
)

// Sender sends a client's requests and, with a policy, retries and fails
// them over: the rule every client that may ask any of several nodes
// shares (the quorum client and forwarder, the session client, the
// gossip client). A request that meets silence for RetryTimeout is held
// against its target's circuit breaker and sent again, byte for byte, to
// the next node the breaker admits and the failure detector does not
// suspect, at the policy's backoff, until its attempt budget is spent.
// An answer credits the responder's breaker. A Sender never hedges: a
// duplicate sent while the first target may still answer is the
// coordinator's to place, where it sees which replica is late.
//
// The client owns the request ids, the callbacks and what a spent budget
// means. It routes a RetryTag timer to Retry and every answer to
// Answered. Without a policy a Sender stores nothing and sends each
// request once. A Sender is confined to the loop that sends through it.
type Sender struct {
	// Self is the sender's id: the failure detector's observer.
	Self string
	// Nodes lists the targets to fail over across, in order.
	Nodes []string
	// Policy, normalized, enables retries and failover when non-nil.
	Policy *resilience.Policy
	// Counters receives resilience event counts. May be nil.
	Counters *resilience.Counters
	// Directory, when set, lets failover skip suspected nodes.
	Directory *resilience.Directory

	sent     map[uint64]*retried
	breakers map[string]*resilience.Breaker
}

// retried is one request a Sender may send again: the message, stored
// verbatim, its current target, its budget and its retry timer.
type retried struct {
	msg    Message
	to     string
	budget *resilience.Budget
	retry  TimerID
}

// RetryTag is the timer of request ID's next retry.
type RetryTag struct{ ID uint64 }

// Send sends msg, request id, to target and, with a policy, arms its
// retry timer at RetryTimeout.
func (s *Sender) Send(env Env, id uint64, target string, msg Message) {
	env.Send(target, msg)
	if s.Policy == nil {
		return
	}
	if s.sent == nil {
		s.sent = make(map[uint64]*retried)
	}
	r := &retried{msg: msg, to: target, budget: resilience.NewBudget(s.Policy.MaxAttempts, true, s.Counters)}
	r.budget.Attempt()
	s.sent[id] = r
	r.retry = env.SetTimer(s.Policy.RetryTimeout, RetryTag{id})
}

// Retry runs request id's retry timer: its target stayed silent, which
// its breaker records, and the request goes to the next target. It
// reports true once, when the budget is spent; the Sender then forgets
// the request.
func (s *Sender) Retry(env Env, id uint64) (spent bool) {
	r, ok := s.sent[id]
	if !ok {
		return false
	}
	s.breaker(r.to).Failure(env.Now())
	return !s.resend(env, id, r)
}

// Resend sends request id to the next target now, as Retry does, for a
// target that answered that it could not serve it: the target is not
// held to have failed. It reports whether the request went out; when
// the budget is spent the Sender forgets it.
func (s *Sender) Resend(env Env, id uint64) bool {
	r, ok := s.sent[id]
	if !ok {
		return false
	}
	armed := r.retry
	sent := s.resend(env, id, r)
	env.Cancel(armed)
	return sent
}

// resend spends an attempt on r, picks its next target, counts the
// failover and the retry, sends and re-arms the timer at the backoff;
// with the budget spent it forgets r instead.
func (s *Sender) resend(env Env, id uint64, r *retried) bool {
	if !r.budget.Attempt() {
		delete(s.sent, id)
		return false
	}
	if next := s.next(env.Now(), r.to); next != r.to {
		r.to = next
		s.Counters.Failover()
	}
	s.Counters.Retry()
	env.Send(r.to, r.msg)
	r.retry = env.SetTimer(s.Policy.Backoff(r.budget.Attempts()-1, env.Rand()), RetryTag{id})
	return true
}

// Answered takes an answer to request id from node from: it credits
// from's breaker and forgets the request.
func (s *Sender) Answered(env Env, id uint64, from string) {
	if s.Policy == nil {
		return
	}
	s.breaker(from).Success()
	s.Drop(env, id)
}

// Drop forgets request id and cancels its retry timer.
func (s *Sender) Drop(env Env, id uint64) {
	if r, ok := s.sent[id]; ok {
		env.Cancel(r.retry)
		delete(s.sent, id)
	}
}

// next returns the node after `after` in Nodes order whose breaker admits
// a request and that the failure detector does not suspect; if every
// other node is skipped it rotates anyway, since some node must be
// tried.
func (s *Sender) next(now time.Duration, after string) string {
	start := 0
	for i, n := range s.Nodes {
		if n == after {
			start = i + 1
			break
		}
	}
	rotated := after
	for i := range s.Nodes {
		cand := s.Nodes[(start+i)%len(s.Nodes)]
		if cand == after {
			continue
		}
		if rotated == after {
			rotated = cand
		}
		if s.breaker(cand).Allow(now) && (s.Directory == nil || !s.Directory.Suspects(s.Self, cand, now)) {
			return cand
		}
	}
	return rotated
}

func (s *Sender) breaker(node string) *resilience.Breaker {
	b, ok := s.breakers[node]
	if !ok {
		if s.breakers == nil {
			s.breakers = make(map[string]*resilience.Breaker)
		}
		b = resilience.NewBreaker(s.Policy, s.Counters)
		s.breakers[node] = b
	}
	return b
}
