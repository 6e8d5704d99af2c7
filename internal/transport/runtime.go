package transport

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// mailbox is an unbounded FIFO queue feeding one node's actor loop.
// Senders never block (protocol handlers may fan out many sends while
// another node's loop is busy; a bounded channel there would deadlock
// two nodes sending to each other under load), and the loop blocks on
// recv until an event or close arrives.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	// queue[head:] are the pending events. Taking advances head instead
	// of reslicing, so a drained queue starts over at the front of its
	// backing array and the steady state enqueues without allocating.
	queue  []procEvent
	head   int
	closed bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// put enqueues an event; it reports false if the mailbox is closed.
func (m *mailbox) put(ev procEvent) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	if len(m.queue) == cap(m.queue) && m.head > 0 && m.head >= len(m.queue)/2 {
		// A backlog that never drains must not pin everything it ever
		// held: before growing, slide the pending half to the front.
		n := copy(m.queue, m.queue[m.head:])
		clear(m.queue[n:])
		m.queue, m.head = m.queue[:n], 0
	}
	m.queue = append(m.queue, ev)
	m.cond.Signal()
	return true
}

// take blocks for the next event; ok=false means the mailbox closed and
// drained.
func (m *mailbox) take() (procEvent, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.head == len(m.queue) && !m.closed {
		m.cond.Wait()
	}
	if m.head == len(m.queue) {
		return procEvent{}, false
	}
	ev := m.queue[m.head]
	m.queue[m.head] = procEvent{}
	m.head++
	if m.head == len(m.queue) {
		m.queue, m.head = m.queue[:0], 0
	}
	return ev, true
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
}

type procEventKind uint8

const (
	pevStart procEventKind = iota
	pevMessage
	pevTimer
	pevCall
	pevCrash
)

// procEvent is one unit of work for a node's actor loop. A pevTimer
// carries nothing: it wakes the loop to fire the timers that are due.
type procEvent struct {
	kind procEventKind
	from string
	msg  Message
	fn   func(Env)
}

// proc is one hosted node: a Handler plus the actor goroutine that
// invokes it single-threaded, mirroring the simulator's discipline.
type proc struct {
	id  string
	h   Handler
	rt  *Runtime
	box *mailbox
	rng *rand.Rand

	// Sharded dispatch (sharded.go). sh/fast are the handler's optional
	// capabilities, detected once at AddNode; shards holds the per-shard
	// execution domains; upFast gates the lock-free fast path from
	// delivering goroutines (the serial loop is its only writer).
	sh     ShardedHandler
	fast   FastHandler
	shards []*shardLoop
	upFast atomic.Bool

	// Loop-confined state (the actor goroutine is the only toucher).
	up     bool
	timers *timers

	done chan struct{}
}

// penv implements Env for one proc. It is reused across invocations;
// the contract only promises validity during an invocation.
type penv struct{ p *proc }

func (e penv) ID() string         { return e.p.id }
func (e penv) Now() time.Duration { return e.p.rt.Now() }
func (e penv) Rand() *rand.Rand   { return e.p.rng }
func (e penv) Send(to string, msg Message) {
	e.p.rt.send(e.p.id, to, msg)
}

func (e penv) SetTimer(d time.Duration, tag any) TimerID { return e.p.timers.set(d, tag) }
func (e penv) Cancel(id TimerID)                         { e.p.timers.cancel(id) }

// loop is the actor goroutine: strictly one handler invocation at a
// time, events in mailbox order.
func (p *proc) loop() {
	defer close(p.done)
	defer p.timers.stop()
	env := penv{p: p}
	for {
		ev, ok := p.box.take()
		if !ok {
			return
		}
		switch ev.kind {
		case pevStart:
			p.up = true
			p.upFast.Store(true)
			p.h.OnStart(env)
		case pevCrash:
			p.up = false
			p.upFast.Store(false)
			p.timers.reset()
		case pevMessage:
			if p.up {
				p.h.OnMessage(env, ev.from, ev.msg)
			}
		case pevTimer:
			p.rt.fire(p.timers, p.h, env)
		case pevCall:
			if p.up {
				ev.fn(env)
			}
		}
	}
}

// fire runs OnTimer for every timer of one execution domain that is due,
// each as its own invocation, and re-arms the domain's wake-up for the
// rest. A crash emptied the heap, so whatever is due was set since the
// node last started.
func (r *Runtime) fire(t *timers, h Handler, env Env) {
	t.fire(func(tag any) {
		r.stats.add(func(s *Stats) { s.TimersFired++ })
		h.OnTimer(env, tag)
	})
}

// Stats counts transport-level events. All fields are monotonic; read a
// snapshot with Runtime.Stats / TCP.Stats.
type Stats struct {
	MessagesSent      uint64
	MessagesDelivered uint64
	MessagesDropped   uint64 // unknown destination, crashed node, severed link, or full peer queue
	TimersFired       uint64

	// Wire accounting (TCP only). Envelopes count protocol messages;
	// frames count wire writes — EnvelopesSent/FramesSent is the mean
	// fan-out batch size (exported as ec_net_batch_size).
	FramesSent        uint64
	FramesReceived    uint64
	EnvelopesSent     uint64
	EnvelopesReceived uint64
	BytesSent         uint64
	BytesReceived     uint64
	Reconnects        uint64
}

// Runtime hosts protocol nodes off-sim: each AddNode spawns an actor
// goroutine that drives the Handler through the same OnStart/OnMessage/
// OnTimer surface the simulator uses. Runtime alone only routes between
// its own nodes; Loopback and TCP extend routing across runtimes.
type Runtime struct {
	mu      sync.Mutex
	procs   map[string]*proc
	start   time.Time
	seed    int64
	closed  bool
	forward func(from, to string, msg Message) bool // non-local routing hook
	cut     func(from, to string) bool              // fault hook: true drops the send
	delay   func(from, to string) time.Duration     // fault hook: artificial link latency

	stats statsCell
}

// NewRuntime returns an empty runtime. seed derives each node's random
// source (per-node streams are independent and stable per id).
func NewRuntime(seed int64) *Runtime {
	return &Runtime{
		procs: make(map[string]*proc),
		start: time.Now(),
		seed:  seed,
	}
}

// Now returns the runtime clock: time since the runtime started. It is
// the off-sim analogue of virtual time — monotone and starting at zero —
// so failure-detector arithmetic carries over unchanged.
func (r *Runtime) Now() time.Duration { return time.Since(r.start) }

// AddNode registers and boots a node. It panics on a duplicate id, like
// the simulator: topology bugs should be loud.
func (r *Runtime) AddNode(id string, h Handler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	if _, ok := r.procs[id]; ok {
		panic(fmt.Sprintf("transport: duplicate node id %q", id))
	}
	p := &proc{
		id:   id,
		h:    h,
		rt:   r,
		box:  newMailbox(),
		rng:  rand.New(rand.NewSource(r.seed ^ int64(idHash(id)))),
		done: make(chan struct{}),
	}
	p.timers = newTimers(r.Now, p.box)
	if sh, ok := h.(ShardedHandler); ok && sh.Shards() > 1 {
		p.sh = sh
		p.shards = newShardLoops(p, sh.Shards())
		if f, ok := h.(FastHandler); ok {
			p.fast = f
		}
	}
	r.procs[id] = p
	p.box.put(procEvent{kind: pevStart})
	for _, sl := range p.shards {
		sl.box.put(procEvent{kind: pevStart})
		go sl.loop()
	}
	go p.loop()
}

// RemoveNode stops a node's loop and forgets it. Pending mailbox events
// are discarded; in-flight timers fire into a closed mailbox and vanish.
func (r *Runtime) RemoveNode(id string) {
	r.mu.Lock()
	p := r.procs[id]
	delete(r.procs, id)
	r.mu.Unlock()
	if p != nil {
		p.box.close()
		for _, sl := range p.shards {
			sl.box.close()
		}
		<-p.done
		for _, sl := range p.shards {
			<-sl.done
		}
	}
}

// Invoke runs fn on the node's actor loop — the off-sim analogue of
// scheduling a client callback with sim.Cluster.At. It is how code
// outside the actor (a client connection handler, a test) safely calls
// protocol methods that expect to run single-threaded with an Env.
// Returns false if the node is unknown or stopped.
func (r *Runtime) Invoke(id string, fn func(Env)) bool {
	return r.InvokeShard(id, -1, fn)
}

// InvokeShard is Invoke onto one execution domain of a sharded node: fn
// runs on shard's loop, in order with the messages ShardOf maps there,
// and the timers it sets fire back on that shard. A shard of -1, or any
// shard of a node without shard loops, is the serial loop.
func (r *Runtime) InvokeShard(id string, shard int, fn func(Env)) bool {
	r.mu.Lock()
	p := r.procs[id]
	r.mu.Unlock()
	if p == nil {
		return false
	}
	ev := procEvent{kind: pevCall, fn: fn}
	if shard >= 0 && shard < len(p.shards) {
		return p.shards[shard].box.put(ev)
	}
	return p.box.put(ev)
}

// Post sends a message on behalf of node from, outside any handler
// invocation, with the same routing as Env.Send. It is how deferred
// senders (the server's durability ack barrier) release messages a
// handler produced once their preconditions — a WAL fsync — hold.
func (r *Runtime) Post(from, to string, msg Message) {
	r.send(from, to, msg)
}

// send routes a message: local node → mailbox, else the forward hook.
// The cut and delay hooks (set by Loopback) inject link faults the way
// the simulator's partition check does, at send time.
func (r *Runtime) send(from, to string, msg Message) {
	r.stats.add(func(s *Stats) { s.MessagesSent++ })
	r.mu.Lock()
	p := r.procs[to]
	fwd := r.forward
	cut := r.cut
	delay := r.delay
	r.mu.Unlock()
	if cut != nil && cut(from, to) {
		r.stats.add(func(s *Stats) { s.MessagesDropped++ })
		return
	}
	if p != nil {
		if delay != nil {
			if d := delay(from, to); d > 0 {
				time.AfterFunc(d, func() { r.deliver(from, to, msg) })
				return
			}
		}
		if r.dispatch(p, from, msg) {
			r.stats.add(func(s *Stats) { s.MessagesDelivered++ })
		} else {
			r.stats.add(func(s *Stats) { s.MessagesDropped++ })
		}
		return
	}
	if fwd != nil && fwd(from, to, msg) {
		return
	}
	r.stats.add(func(s *Stats) { s.MessagesDropped++ })
}

// deliver injects a message that arrived from another runtime (loopback
// peer or decoded TCP frame) into the local destination node.
func (r *Runtime) deliver(from, to string, msg Message) bool {
	r.mu.Lock()
	p := r.procs[to]
	r.mu.Unlock()
	if p == nil || !r.dispatch(p, from, msg) {
		r.stats.add(func(s *Stats) { s.MessagesDropped++ })
		return false
	}
	r.stats.add(func(s *Stats) { s.MessagesDelivered++ })
	return true
}

// Nodes returns the ids of currently hosted nodes (unordered).
func (r *Runtime) Nodes() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.procs))
	for id := range r.procs {
		out = append(out, id)
	}
	return out
}

// Stats returns a snapshot of transport accounting.
func (r *Runtime) Stats() Stats { return r.stats.snapshot() }

// Close stops every node loop. Idempotent.
func (r *Runtime) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	procs := make([]*proc, 0, len(r.procs))
	for _, p := range r.procs {
		procs = append(procs, p)
	}
	r.procs = make(map[string]*proc)
	r.mu.Unlock()
	for _, p := range procs {
		p.box.close()
		for _, sl := range p.shards {
			sl.box.close()
		}
	}
	for _, p := range procs {
		<-p.done
		for _, sl := range p.shards {
			<-sl.done
		}
	}
}

// crash / restart support (used by Loopback for fault injection).

func (r *Runtime) crash(id string) {
	r.mu.Lock()
	p := r.procs[id]
	r.mu.Unlock()
	if p != nil {
		p.box.put(procEvent{kind: pevCrash})
		for _, sl := range p.shards {
			sl.box.put(procEvent{kind: pevCrash})
		}
	}
}

func (r *Runtime) restart(id string) {
	r.mu.Lock()
	p := r.procs[id]
	r.mu.Unlock()
	if p != nil {
		p.box.put(procEvent{kind: pevStart})
		for _, sl := range p.shards {
			sl.box.put(procEvent{kind: pevStart})
		}
	}
}

// idHash gives each node id a stable 64-bit fingerprint for seeding.
func idHash(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64()
}

// statsCell guards a Stats value; one mutex keeps the counter updates
// simple and the snapshot consistent.
type statsCell struct {
	mu sync.Mutex
	s  Stats
}

func (c *statsCell) add(fn func(*Stats)) {
	c.mu.Lock()
	fn(&c.s)
	c.mu.Unlock()
}

func (c *statsCell) snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s
}
