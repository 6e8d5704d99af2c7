package quorum

import (
	"time"

	"repro/internal/clock"
	"repro/internal/geo"
	"repro/internal/transport"
)

// Sending a client operation to a coordinator. Two senders do it: a
// Client, the simulator's end client, and a Node, for the clients of its
// own process whose operation another node coordinates (CoordinatePut).
// Both keep their operations in requests, which sends them through a
// transport.Sender: the retry and failover rule the session and gossip
// clients share. Neither hedges: a read is hedged once, by its
// coordinator (see pendingRead.tick), which sees which replica is late.
//
// The message is stored verbatim: every retry resends the identical
// bytes (same request id, same context), so a coordinator that gets it
// twice, or a second coordinator after a failover, derives the same dot
// from (sender, request id) and the write applies at most once (see
// clientDot). Reads are idempotent anyway, so every operation gets the
// full retry budget.

// requests holds a sender's operations in flight, by request id: what
// each answer completes, how long it waits for one, and the
// transport.Sender that retries and fails the operations over. It is
// confined to the loop that sends them: a Client's, or the shard loop of
// a Node that issued the request ids.
type requests struct {
	pending map[uint64]*request
	timeout time.Duration
	via     transport.Sender
}

// request is one operation sent to a coordinator and not yet answered:
// the key, a put's context (with the request id, it names the dot), the
// callback of its kind, a planned get's tier and staleness (see Plan),
// and the timer of its time-out, cancelled when an answer comes first.
type request struct {
	key      string
	ctx      clock.Vector
	put      func(transport.Env, PutResult)
	get      func(transport.Env, GetResult)
	tier     geo.Kind
	staleMs  int64
	deadline transport.TimerID
}

// deadlineTag is the time-out of request id's answer.
type deadlineTag struct{ id uint64 }

func newRequests(timeout time.Duration, via transport.Sender) requests {
	return requests{pending: make(map[uint64]*request), timeout: timeout, via: via}
}

// send dispatches msg, request id, to coordinator, arming the answer's
// time-out before it goes.
func (q *requests) send(env transport.Env, coordinator string, id uint64, msg transport.Message, r *request) {
	q.pending[id] = r
	r.deadline = env.SetTimer(q.timeout, deadlineTag{id})
	q.via.Send(env, id, coordinator, msg)
}

// settle completes request id with its coordinator's answer, a putResp
// or a getResp from `from`, or with ErrNoResponse when answer is nil (its
// time-out). Only the first answer completes it: a retry's second finds
// nothing.
func (q *requests) settle(env transport.Env, id uint64, from string, answer transport.Message) {
	r, ok := q.pending[id]
	if !ok {
		return
	}
	delete(q.pending, id)
	if answer != nil {
		env.Cancel(r.deadline)
		q.via.Answered(env, id, from)
	} else {
		q.via.Drop(env, id)
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
			w := clock.DVV{Dot: clientDot(q.via.Self, id, r.ctx), Context: r.ctx}
			r.put(env, PutResult{Key: r.key, Context: w.Join(clock.DVV{}), Err: ErrNoResponse})
		} else {
			r.get(env, GetResult{Key: r.key, Err: ErrNoResponse})
		}
	}
}

// forwarder is the Sender of request id's shard, failing over across
// the current members.
func (n *Node) forwarder(id uint64) *transport.Sender {
	via := &n.reqShard(id).out.via
	via.Nodes = n.members()
	return via
}
