package server

import (
	"sync/atomic"

	"repro/internal/transport"
)

// ackBarrier wraps the storage actor's Handler to enforce
// durable-before-ack without blocking the actor loop on fsyncs.
//
// Every protocol ack (a quorum replica's write response, a session
// server's swrite response) is an Env.Send made in the same handler
// invocation that called Persist. The barrier intercepts those sends:
// after each invocation it takes the highest WAL seq the invocation
// appended (durability.takePending) and, unless the log's durable
// watermark already covers it, parks the invocation's outgoing messages
// on a release queue instead of sending them. A release goroutine waits
// for the watermark to pass each batch's seq and then posts the batch.
// The actor loop itself never waits — it moves on to the next message,
// appending more records behind the in-flight fsync, which is what forms
// WAL commit groups across concurrent client operations.
//
// A send waits only for the records journaled before it in the same
// invocation. The sends an invocation makes before its first append
// depend on nothing it journals, so they are released as a
// non-journaling invocation's would be: inline when the domain's queue is
// drained, else as the head of the invocation's batch, posted in domain
// order without waiting for its seq. This is what lets a coordinator fan
// a write out to its peers before journaling its own copy, and still
// have the peers get the write while its own fsync runs. The answer to
// the client comes after the coordinator's record, in this invocation or
// in a later one on the same domain, and so waits for it either way.
//
// The server's own calls onto a domain's loop (Call: a client operation
// on a gossip node, or a quorum operation this node coordinates) are
// invocations too, and the answer to the client, a call and not a message
// (deferEnv.Defer), rides the same queue as a send would.
//
// A batch whose seq never becomes durable (its append failed, or the
// fsync did) is dropped, not posted: the write is never acked, and a
// deferred answer runs its drop in its place. Its domain then drops every
// later batch too, because a later ack may rest on the lost record — a
// retried put that finds its version already installed journals nothing
// and would otherwise be acked at once.
//
// The barrier has one domain per execution domain of the node (the
// serial loop plus every shard loop), indexed by Env.Domain: each has its
// own deferred-send buffer, pending entry, release queue, and release
// goroutine, so the barrier stays lock-free — every piece is confined to
// one goroutine. A sharded node is hosted with its sharding beside the
// barrier (transport.WithSharding), so the read fast path skips the
// barrier entirely. That is sound because the fast path serves reads: it
// journals nothing, so no ack of its own needs gating, and
// durable-before-ack only promises that acked writes survive.
//
// Batches release strictly in invocation order within a domain. WAL
// sequence numbers are assigned in append order and the watermark is
// monotone, so a domain's queue never waits out of order; ordering also
// means a non-persisting invocation's sends cannot overtake an earlier
// persisting one's on the same domain. (Across domains there is no
// order — the protocol already tolerates cross-key reordering.) The
// fast path — the invocation's records already durable (or none) and
// the domain's queue drained — sends inline, so reads and protocol
// chatter keep their direct-send latency.
type ackBarrier struct {
	inner transport.Handler
	dur   *durability
	post  func(to string, msg transport.Message)

	// doms[i] serves execution domain i (see transport.Env.Domain).
	doms []*ackDomain
}

// ackDomain is one execution domain's slice of the barrier. Everything
// except the release queue, the free list and the two atomics is
// confined to the domain's executor goroutine.
type ackDomain struct {
	q      chan sendBatch
	queued atomic.Int64 // batches enqueued but not yet fully released
	done   chan struct{}

	// free returns posted batches' send buffers to the domain. A domain
	// rarely has more batches in flight than one fsync's worth of
	// invocations; buffers beyond its 64 slots go to the collector.
	free chan []outMsg
	// lost is set once a batch was dropped: every later batch of the
	// domain is dropped too.
	lost atomic.Bool

	env deferEnv // reused across invocations (each domain is single-threaded)
}

// outMsg is one deferred send, or a deferred answer (fn set) in place of
// one: see deferEnv.Defer.
type outMsg struct {
	to       string
	msg      transport.Message
	fn, drop func()
}

// send delivers m: posts the message, or runs the call.
func (m outMsg) send(post func(to string, msg transport.Message)) {
	if m.fn != nil {
		m.fn()
		return
	}
	post(m.to, m.msg)
}

// sendBatch is one invocation's deferred sends and the WAL seq they wait
// for (0 when the invocation journaled nothing). The first early sends
// were made before the invocation's first record and wait for nothing.
type sendBatch struct {
	seq   uint64
	sends []outMsg
	early int
}

// deferEnv captures a handler invocation's sends for the barrier while
// passing everything else straight through to the real Env.
type deferEnv struct {
	transport.Env
	sends []outMsg
	// inline is set when the invocation began on a drained queue of a
	// domain that has lost nothing: its sends made before its first
	// record (into domain dom of dur) go out at once. Otherwise early
	// counts those sends, the head of sends.
	inline bool
	early  int
	dur    *durability
	dom    int
}

func (e *deferEnv) Send(to string, msg transport.Message) {
	e.add(outMsg{to: to, msg: msg})
}

func (e *deferEnv) add(m outMsg) {
	if !e.dur.journaled(e.dom) {
		if e.inline {
			m.send(e.Env.Send)
			return
		}
		e.early = len(e.sends) + 1
	}
	e.sends = append(e.sends, m)
}

// Defer queues answer with the invocation's sends, to run where a
// message in its place would be posted: after the records the invocation
// journaled are durable, in the domain's order. Once the domain has lost
// a record, drop runs instead. Exactly one of the two runs. It is how an
// answer to a client, which is a call and not a message, obeys the
// barrier.
func (e *deferEnv) Defer(answer, drop func()) {
	e.add(outMsg{fn: answer, drop: drop})
}

// newAckBarrier builds a barrier with one domain per execution domain
// dur journals for (durability.setDomains).
func newAckBarrier(inner transport.Handler, dur *durability, post func(to string, msg transport.Message)) *ackBarrier {
	b := &ackBarrier{
		inner: inner,
		dur:   dur,
		post:  post,
		doms:  make([]*ackDomain, len(dur.pending)),
	}
	for i := range b.doms {
		d := &ackDomain{
			q:    make(chan sendBatch, 1024),
			free: make(chan []outMsg, 64),
			done: make(chan struct{}),
		}
		d.env.dur, d.env.dom = dur, i
		b.doms[i] = d
		go b.release(d)
	}
	return b
}

func (b *ackBarrier) OnStart(env transport.Env) {
	b.Call(env, b.inner.OnStart)
}

func (b *ackBarrier) OnMessage(env transport.Env, from string, msg transport.Message) {
	b.Call(env, func(env transport.Env) { b.inner.OnMessage(env, from, msg) })
}

func (b *ackBarrier) OnTimer(env transport.Env, tag any) {
	b.Call(env, func(env transport.Env) { b.inner.OnTimer(env, tag) })
}

// Call runs fn as one handler invocation of env's domain: what fn sends
// or defers waits for the records it journals. Besides the handler
// methods above, the server runs a call the runtime made on the domain's
// loop through it (Runtime.InvokeShard).
func (b *ackBarrier) Call(env transport.Env, fn func(transport.Env)) {
	i := env.Domain()
	d := b.doms[i]
	d.env.Env, d.env.sends, d.env.early = env, d.env.sends[:0], 0
	// queued grows only on this goroutine, and lost cannot flip while
	// the queue is empty, so a drained queue holds for the invocation.
	d.env.inline = d.queued.Load() == 0 && !d.lost.Load()
	fn(&d.env)
	b.finish(i, d, env)
}

// finish routes one finished invocation's sends: inline when its records
// are already durable and the domain's queue is drained, else onto the
// release queue. A queued batch takes the send buffer with it, and the
// domain continues with a buffer the release goroutine handed back.
func (b *ackBarrier) finish(i int, d *ackDomain, env transport.Env) {
	seq := b.dur.takePending(i)
	if d.queued.Load() == 0 && !d.lost.Load() && b.dur.durable(seq) {
		// queued can only grow on this goroutine, so a drained queue
		// stays drained for the duration of this fast path.
		for _, m := range d.env.sends {
			m.send(env.Send)
		}
		return
	}
	batch := sendBatch{seq: seq, early: d.env.early}
	if len(d.env.sends) > 0 {
		batch.sends = d.env.sends
		select {
		case d.env.sends = <-d.free:
		default:
			d.env.sends = nil
		}
	}
	d.queued.Add(1)
	d.q <- batch
}

// release drains one domain's queue: post each batch's early sends, wait
// for its seq to become durable, then post the rest, or drop them if it
// never does. Posting uses Runtime.Post, which is safe off the actor
// goroutine.
func (b *ackBarrier) release(d *ackDomain) {
	defer close(d.done)
	for batch := range d.q {
		unsent := batch.sends
		if !d.lost.Load() {
			for _, m := range unsent[:batch.early] {
				m.send(b.post)
			}
			unsent = unsent[batch.early:]
			if b.dur.await(batch.seq) {
				for _, m := range unsent {
					m.send(b.post)
				}
				unsent = nil
			} else {
				d.lost.Store(true)
			}
		}
		for _, m := range unsent {
			if m.drop != nil {
				m.drop()
			}
		}
		if batch.sends != nil {
			clear(batch.sends) // drop the messages, keep the buffer
			select {
			case d.free <- batch.sends[:0]:
			default:
			}
		}
		d.queued.Add(-1)
	}
}

// Close drains and stops the release goroutines. Call only after the
// transport is closed (no more handler invocations) and before the WAL
// closes (pending commits must still complete).
func (b *ackBarrier) Close() {
	for _, d := range b.doms {
		close(d.q)
	}
	for _, d := range b.doms {
		<-d.done
	}
}
