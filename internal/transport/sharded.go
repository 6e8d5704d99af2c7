package transport

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"
)

// Multi-core dispatch. A Handler hosted by a Runtime normally runs
// single-threaded on one actor goroutine; a ShardedHandler additionally
// declares S per-shard sub-mailboxes, each drained by its own
// goroutine. The dispatch layer routes key-addressed messages straight
// to the owning shard's goroutine while everything else (membership,
// anti-entropy, handoff — anything ShardOf maps to -1) keeps the serial
// actor loop and its unchanged semantics. A FastHandler goes further:
// it may answer a message synchronously on the delivering goroutine
// (the TCP reader), skipping every mailbox.
//
// What sharding costs in ordering: two messages to the same node are no
// longer delivered in send order unless they map to the same execution
// domain. The quorum protocol tolerates arbitrary reordering (the
// network never promised FIFO across TCP reconnects either), which is
// what licenses the looser discipline.

// ShardedHandler is a Handler that partitions its message processing
// across Shards() concurrent execution domains.
//
// The handler's OnMessage/OnTimer are invoked concurrently: once by the
// serial actor loop and once per shard goroutine. The handler owns its
// cross-shard synchronization; the runtime only guarantees that
// messages mapped to the same shard are processed in arrival order by
// one goroutine, and that a timer set during a shard invocation fires
// back on that same shard.
type ShardedHandler interface {
	Handler
	// Shards returns the shard count. Values < 2 disable sharded
	// dispatch entirely.
	Shards() int
	// ShardOf maps a message to its execution domain: 0..Shards()-1 for
	// a shard goroutine, -1 for the serial actor loop.
	ShardOf(msg Message) int
}

// FastHandler lets a handler answer a message inline on the delivering
// goroutine, bypassing all mailboxes. FastHandle returns true when it
// fully handled the message; false defers to normal dispatch. The env
// it receives supports ID/Now/Send only — SetTimer, Cancel, and Rand
// panic, because the invocation runs outside any actor loop.
type FastHandler interface {
	FastHandle(env Env, from string, msg Message) bool
}

// ShardEnv is implemented by the Env of a shard-loop invocation.
// Handlers (and wrappers like the server's durability barrier) use it
// to learn which execution domain they are running on: Shard() returns
// the shard index, while the serial loop's env returns -1.
type ShardEnv interface {
	Shard() int
}

// ShardStat is one shard's dispatch accounting.
type ShardStat struct {
	Depth int    // events waiting in the shard's mailbox
	Ops   uint64 // messages and calls processed by (or fast-handled for) the shard
}

// ShardStats returns per-shard queue depths and op counts for node id,
// or nil when the node is absent or not sharded.
func (r *Runtime) ShardStats(id string) []ShardStat {
	r.mu.Lock()
	p := r.procs[id]
	r.mu.Unlock()
	if p == nil || len(p.shards) == 0 {
		return nil
	}
	out := make([]ShardStat, len(p.shards))
	for i, sl := range p.shards {
		out[i] = ShardStat{Depth: sl.box.depth(), Ops: sl.ops.Load()}
	}
	return out
}

// shardLoop is one shard's execution domain: its own mailbox, goroutine,
// timers, and random stream, mirroring the serial proc loop.
type shardLoop struct {
	p   *proc
	idx int
	box *mailbox
	rng *rand.Rand
	ops atomic.Uint64

	// Loop-confined state.
	up     bool
	timers *timers

	done chan struct{}
}

// senv is the Env of a shard-loop invocation.
type senv struct{ sl *shardLoop }

func (e senv) ID() string                  { return e.sl.p.id }
func (e senv) Now() time.Duration          { return e.sl.p.rt.Now() }
func (e senv) Rand() *rand.Rand            { return e.sl.rng }
func (e senv) Shard() int                  { return e.sl.idx }
func (e senv) Send(to string, msg Message) { e.sl.p.rt.send(e.sl.p.id, to, msg) }

func (e senv) SetTimer(d time.Duration, tag any) TimerID { return e.sl.timers.set(d, tag) }
func (e senv) Cancel(id TimerID)                         { e.sl.timers.cancel(id) }

// loop drains the shard mailbox, invoking the handler one event at a
// time. pevStart/pevCrash arrive broadcast alongside the serial loop's,
// so the shard's up flag and timers track the node's lifecycle
// independently (messages racing a crash are droppable either way).
func (sl *shardLoop) loop() {
	defer close(sl.done)
	defer sl.timers.stop()
	env := senv{sl: sl}
	for {
		ev, ok := sl.box.take()
		if !ok {
			return
		}
		switch ev.kind {
		case pevStart:
			sl.up = true
		case pevCrash:
			sl.up = false
			sl.timers.reset()
		case pevMessage:
			if sl.up {
				sl.ops.Add(1)
				sl.p.h.OnMessage(env, ev.from, ev.msg)
			}
		case pevTimer:
			sl.p.rt.fire(sl.timers, sl.p.h, env)
		case pevCall:
			if sl.up {
				sl.ops.Add(1)
				ev.fn(env)
			}
		}
	}
}

// fastEnv is the Env a FastHandle invocation sees. It runs on the
// delivering goroutine (a TCP reader), where sending is safe — rt.send
// takes its own locks — but actor-loop facilities are not.
type fastEnv struct{ p *proc }

func (e fastEnv) ID() string                  { return e.p.id }
func (e fastEnv) Now() time.Duration          { return e.p.rt.Now() }
func (e fastEnv) Send(to string, msg Message) { e.p.rt.send(e.p.id, to, msg) }
func (e fastEnv) SetTimer(time.Duration, any) TimerID {
	panic("transport: SetTimer is not available on the fast path")
}
func (e fastEnv) Cancel(TimerID) {
	panic("transport: Cancel is not available on the fast path")
}
func (e fastEnv) Rand() *rand.Rand {
	panic("transport: Rand is not available on the fast path")
}

// newShardLoops builds and starts the shard goroutines for p.
func newShardLoops(p *proc, n int) []*shardLoop {
	if n < 2 {
		return nil
	}
	shards := make([]*shardLoop, n)
	for i := range shards {
		sl := &shardLoop{
			p:    p,
			idx:  i,
			box:  newMailbox(),
			rng:  rand.New(rand.NewSource(p.rt.seed ^ int64(idHash(fmt.Sprintf("%s/shard%d", p.id, i))))),
			done: make(chan struct{}),
		}
		sl.timers = newTimers(p.rt.Now, sl.box)
		shards[i] = sl
	}
	return shards
}

// dispatch routes a message to p's owning execution domain: the fast
// path if the handler claims it, the shard mailbox for key-addressed
// messages, the serial mailbox otherwise. Reports whether the message
// was accepted.
func (r *Runtime) dispatch(p *proc, from string, msg Message) bool {
	if p.fast != nil && p.upFast.Load() && p.fast.FastHandle(fastEnv{p: p}, from, msg) {
		if k := p.sh.ShardOf(msg); k >= 0 && k < len(p.shards) {
			p.shards[k].ops.Add(1)
		}
		return true
	}
	if p.sh != nil {
		if k := p.sh.ShardOf(msg); k >= 0 && k < len(p.shards) {
			return p.shards[k].box.put(procEvent{kind: pevMessage, from: from, msg: msg})
		}
	}
	return p.box.put(procEvent{kind: pevMessage, from: from, msg: msg})
}

// depth reports the number of queued events.
func (m *mailbox) depth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue) - m.head
}
