package transport

import (
	"math/rand"
	"time"
)

// Execution domains. Every hosted node runs on domain 0, its serial
// actor loop. A ShardedHandler that declares S shards also gets domains
// 1..S, one shard loop each: the same loop as domain 0 with its own
// mailbox, goroutine, timers and random stream. The dispatch layer routes
// key-addressed messages straight to the owning shard's loop while
// everything else (membership, anti-entropy, handoff — anything ShardOf
// maps to -1) keeps the serial loop and its unchanged semantics. The
// handler may also answer a message synchronously on the delivering
// goroutine (the TCP reader), skipping every mailbox (FastHandle).
//
// Handlers name a shard as ShardOf does, -1 for the serial loop and k for
// shard k; an invocation's Env names its domain as Env.Domain does, 0 for
// the serial loop and 1+k for shard k. The runtime is the only place that
// maps one to the other.
//
// What sharding costs in ordering: two messages to the same node are no
// longer delivered in send order unless they map to the same execution
// domain. The quorum protocol tolerates arbitrary reordering (the
// network never promised FIFO across TCP reconnects either), which is
// what licenses the looser discipline.

// Sharding is what a sharded node declares about its execution domains.
type Sharding interface {
	// Shards returns the shard count S: the node runs on S shard loops
	// beside its serial loop.
	Shards() int
	// ShardOf maps a message to where it runs: 0..Shards()-1 for a shard
	// loop, -1 for the serial actor loop.
	ShardOf(msg Message) int
	// FastHandle may answer msg inline on the delivering goroutine,
	// bypassing every mailbox, and reports whether it did; false defers
	// to normal dispatch. The env it receives supports ID/Now/Send only —
	// SetTimer, Cancel, Rand and Domain panic, because the invocation
	// runs outside any execution domain.
	FastHandle(env Env, from string, msg Message) bool
}

// ShardedHandler is a Handler that partitions its message processing
// across Shards() concurrent execution domains besides the serial loop.
//
// The handler's OnMessage/OnTimer are invoked concurrently: once by the
// serial actor loop and once per shard loop. The handler owns its
// cross-shard synchronization; the runtime only guarantees that
// messages mapped to the same shard are processed in arrival order by
// one goroutine, and that a timer set during a shard invocation fires
// back on that same shard.
type ShardedHandler interface {
	Handler
	Sharding
}

// WithSharding hosts h with sh's execution domains. It is how a wrapper
// around a sharded node (a durability barrier, say) is hosted with the
// node's sharding without declaring it itself: invocations reach h, and
// the fast path reaches sh directly.
func WithSharding(h Handler, sh Sharding) ShardedHandler {
	return withSharding{h, sh}
}

type withSharding struct {
	Handler
	Sharding
}

// ShardStat is one shard's dispatch accounting.
type ShardStat struct {
	Depth int    // events waiting in the shard's mailbox
	Ops   uint64 // messages and calls processed by (or fast-handled for) the shard
}

// ShardStats returns per-shard queue depths and op counts for node id,
// or nil when the node is absent or not sharded.
func (r *Runtime) ShardStats(id string) []ShardStat {
	p := r.proc(id)
	if p == nil {
		return nil
	}
	var out []ShardStat
	for _, d := range p.doms[1:] {
		out = append(out, ShardStat{Depth: d.box.depth(), Ops: d.ops.Load()})
	}
	return out
}

// fastEnv is the Env a FastHandle invocation sees. It runs on the
// delivering goroutine (a TCP reader), where sending is safe — rt.send
// takes its own locks — but nothing confined to a domain is.
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
func (e fastEnv) Domain() int {
	panic("transport: the fast path runs in no execution domain")
}
func (e fastEnv) Heartbeats() bool { return e.p.rt.heartbeats }

// dispatch routes a message to p's owning execution domain: the fast
// path if the handler claims it, the shard mailbox for key-addressed
// messages, the serial mailbox otherwise. Reports whether the message
// was accepted.
func (r *Runtime) dispatch(p *proc, from string, msg Message) bool {
	d := p.doms[0]
	if p.sh != nil {
		d = p.doms[1+p.sh.ShardOf(msg)]
		if p.up.Load() && p.sh.FastHandle(fastEnv{p: p}, from, msg) {
			d.ops.Add(1)
			return true
		}
	}
	return d.box.put(procEvent{kind: pevMessage, from: from, msg: msg})
}

// depth reports the number of queued events.
func (m *mailbox) depth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue) - m.head
}
