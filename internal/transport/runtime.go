package transport

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// mailbox is an unbounded FIFO queue feeding one execution domain's loop.
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

// procEvent is one unit of work for an execution domain's loop. A pevTimer
// carries nothing: it wakes the loop to fire the timers that are due.
type procEvent struct {
	kind procEventKind
	from string
	msg  Message
	fn   func(Env)
}

// proc is one hosted node: a Handler and its execution domains.
type proc struct {
	id string
	h  Handler
	rt *Runtime

	// sh is the handler's sharding, detected once at AddNode; nil for a
	// node that runs in domain 0 alone. doms[0] is the serial loop and
	// doms[1+k] shard k. up gates the fast path from delivering
	// goroutines; domain 0 is its only writer.
	sh   ShardedHandler
	doms []*domain
	up   atomic.Bool
}

// domain is one execution domain of a node: a mailbox drained by its own
// goroutine, one handler invocation at a time in mailbox order, with its
// own timers and random stream. Domain 0 is the serial actor loop every
// node has; a ShardedHandler's shard k is domain 1+k. The domain is also
// the Env of every invocation it runs: the contract only promises an Env
// is valid during its invocation, so one value serves them all.
type domain struct {
	p   *proc
	idx int
	box *mailbox
	rng *rand.Rand
	ops atomic.Uint64 // messages and calls run (or fast-handled) here

	// Loop-confined state.
	up      bool
	timers  *timers
	onTimer func(tag any) // bound once: firing a timer allocates nothing

	done chan struct{}
}

func newDomain(p *proc, idx int) *domain {
	name := p.id
	if idx > 0 {
		name = fmt.Sprintf("%s/shard%d", p.id, idx-1)
	}
	d := &domain{
		p:    p,
		idx:  idx,
		box:  newMailbox(),
		rng:  rand.New(rand.NewSource(p.rt.seed ^ int64(idHash(name)))),
		done: make(chan struct{}),
	}
	d.timers = newTimers(p.rt.Now, d.box)
	d.onTimer = func(tag any) {
		p.rt.stats.timersFired.Add(1)
		p.h.OnTimer(d, tag)
	}
	return d
}

func (d *domain) ID() string                  { return d.p.id }
func (d *domain) Now() time.Duration          { return d.p.rt.Now() }
func (d *domain) Rand() *rand.Rand            { return d.rng }
func (d *domain) Domain() int                 { return d.idx }
func (d *domain) Heartbeats() bool            { return d.p.rt.heartbeats }
func (d *domain) Send(to string, msg Message) { d.p.rt.send(d.p.id, to, msg) }

func (d *domain) SetTimer(dur time.Duration, tag any) TimerID { return d.timers.set(dur, tag) }
func (d *domain) Cancel(id TimerID)                           { d.timers.cancel(id) }

// loop is the domain's goroutine. pevStart and pevCrash reach every
// domain of the node, so each domain's up flag and timers track the
// node's lifecycle on their own (messages racing a crash are droppable
// either way); OnStart runs once per boot, on the serial loop.
func (d *domain) loop() {
	defer close(d.done)
	defer d.timers.stop()
	h := d.p.h
	for {
		ev, ok := d.box.take()
		if !ok {
			return
		}
		switch ev.kind {
		case pevStart:
			d.up = true
			if d.idx == 0 {
				d.p.up.Store(true)
				h.OnStart(d)
			}
		case pevCrash:
			d.up = false
			if d.idx == 0 {
				d.p.up.Store(false)
			}
			d.timers.reset()
		case pevMessage:
			if d.up {
				d.ops.Add(1)
				h.OnMessage(d, ev.from, ev.msg)
			}
		case pevTimer:
			// A crash emptied the heap, so whatever is due was set since
			// the node last started.
			d.timers.fire(d.onTimer)
		case pevCall:
			if d.up {
				d.ops.Add(1)
				ev.fn(d)
			}
		}
	}
}

// post enqueues one event on every domain of p.
func (p *proc) post(kind procEventKind) {
	for _, d := range p.doms {
		d.box.put(procEvent{kind: kind})
	}
}

// close closes every domain's mailbox; wait then waits for the loops to
// drain and exit.
func (p *proc) close() {
	for _, d := range p.doms {
		d.box.close()
	}
}

func (p *proc) wait() {
	for _, d := range p.doms {
		<-d.done
	}
}

// Stats counts transport-level events. All fields are monotonic; read a
// snapshot with Runtime.Stats / TCP.Stats.
type Stats struct {
	MessagesSent      uint64
	MessagesDelivered uint64
	MessagesDropped   uint64 // unknown destination, crashed node, severed link, or full peer queue
	TimersFired       uint64

	// Wire accounting (TCP only). Envelopes count protocol messages, a
	// frame each; frames count socket writes and stream reads — so
	// EnvelopesSent/FramesSent is the mean batch per write (exported as
	// ec_net_batch_size).
	FramesSent        uint64
	FramesReceived    uint64
	EnvelopesSent     uint64
	EnvelopesReceived uint64
	BytesSent         uint64
	BytesReceived     uint64
	Reconnects        uint64
}

// Runtime hosts protocol nodes off-sim: each AddNode spawns the node's
// execution domains, which drive the Handler through the same OnStart/
// OnMessage/OnTimer surface the simulator uses. Runtime alone only
// routes between its own nodes; Loopback and TCP extend routing across
// runtimes.
type Runtime struct {
	mu      sync.Mutex
	procs   map[string]*proc
	start   time.Time
	seed    int64
	closed  bool
	forward func(from, to string, msg Message) bool // non-local routing hook
	cut     func(from, to string) bool              // fault hook: true drops the send
	delay   func(from, to string) time.Duration     // fault hook: artificial link latency
	// heartbeats is Env.Heartbeats for every domain: set by a TCP
	// transport given a Directory, before any node is added.
	heartbeats bool

	stats statsCell
}

// NewRuntime returns an empty runtime. seed derives each domain's random
// source (the streams are independent and stable per node id and shard).
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

// AddNode registers and boots a node: the serial loop, plus one shard
// loop per shard if h is a ShardedHandler. It panics on a duplicate id,
// like the simulator: topology bugs should be loud.
func (r *Runtime) AddNode(id string, h Handler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	if _, ok := r.procs[id]; ok {
		panic(fmt.Sprintf("transport: duplicate node id %q", id))
	}
	p := &proc{id: id, h: h, rt: r}
	domains := 1
	if sh, ok := h.(ShardedHandler); ok {
		p.sh = sh
		domains += sh.Shards()
	}
	p.doms = make([]*domain, domains)
	for i := range p.doms {
		p.doms[i] = newDomain(p, i)
	}
	r.procs[id] = p
	p.post(pevStart)
	for _, d := range p.doms {
		go d.loop()
	}
}

// proc returns the node hosted as id, or nil.
func (r *Runtime) proc(id string) *proc {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.procs[id]
}

// RemoveNode stops a node's loops and forgets it. Pending mailbox events
// are discarded; in-flight timers fire into a closed mailbox and vanish.
func (r *Runtime) RemoveNode(id string) {
	r.mu.Lock()
	p := r.procs[id]
	delete(r.procs, id)
	r.mu.Unlock()
	if p != nil {
		p.close()
		p.wait()
	}
}

// Invoke runs fn on the node's serial loop — the off-sim analogue of
// scheduling a client callback with sim.Cluster.At. It is how code
// outside the actor (a client connection handler, a test) safely calls
// protocol methods that expect to run single-threaded with an Env.
// Returns false if the node is unknown or stopped.
func (r *Runtime) Invoke(id string, fn func(Env)) bool {
	return r.InvokeShard(id, -1, fn)
}

// InvokeShard is Invoke onto one shard of a sharded node, in the
// numbering ShardOf uses: fn runs on the shard's loop (domain 1+shard),
// in order with the messages ShardOf maps there, and the timers it sets
// fire back on that loop. Shard -1 is the serial loop. Returns false if
// the node is unknown or stopped, or has no such shard.
func (r *Runtime) InvokeShard(id string, shard int, fn func(Env)) bool {
	p := r.proc(id)
	if p == nil || shard < -1 || shard+1 >= len(p.doms) {
		return false
	}
	return p.doms[1+shard].box.put(procEvent{kind: pevCall, fn: fn})
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
	r.stats.messagesSent.Add(1)
	r.mu.Lock()
	p := r.procs[to]
	fwd := r.forward
	cut := r.cut
	delay := r.delay
	r.mu.Unlock()
	if cut != nil && cut(from, to) {
		r.stats.messagesDropped.Add(1)
		return
	}
	if p != nil {
		if delay != nil {
			if d := delay(from, to); d > 0 {
				time.AfterFunc(d, func() { r.deliver(from, to, msg) })
				return
			}
		}
		r.count(r.dispatch(p, from, msg))
		return
	}
	if fwd != nil && fwd(from, to, msg) {
		return
	}
	r.stats.messagesDropped.Add(1)
}

// deliver injects a message that arrived from another runtime (loopback
// peer or decoded TCP frame) into the local destination node.
func (r *Runtime) deliver(from, to string, msg Message) bool {
	p := r.proc(to)
	return r.count(p != nil && r.dispatch(p, from, msg))
}

// count records one local delivery as delivered or dropped.
func (r *Runtime) count(delivered bool) bool {
	if delivered {
		r.stats.messagesDelivered.Add(1)
	} else {
		r.stats.messagesDropped.Add(1)
	}
	return delivered
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

// Close stops every node's loops. Idempotent.
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
		p.close()
	}
	for _, p := range procs {
		p.wait()
	}
}

// crash / restart support (used by Loopback for fault injection).

func (r *Runtime) crash(id string) {
	if p := r.proc(id); p != nil {
		p.post(pevCrash)
	}
}

func (r *Runtime) restart(id string) {
	if p := r.proc(id); p != nil {
		p.post(pevStart)
	}
}

// idHash gives each node id a stable 64-bit fingerprint for seeding.
func idHash(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64()
}

// statsCell holds one atomic counter per Stats field, so the goroutines
// that count (every domain, every TCP reader and writer) share no lock.
type statsCell struct {
	messagesSent, messagesDelivered, messagesDropped, timersFired atomic.Uint64
	framesSent, framesReceived, envelopesSent, envelopesReceived  atomic.Uint64
	bytesSent, bytesReceived, reconnects                          atomic.Uint64
}

// countSent counts one write to a peer of envelopes envelopes in bytes
// bytes.
func (c *statsCell) countSent(envelopes, bytes int) {
	c.framesSent.Add(1)
	c.envelopesSent.Add(uint64(envelopes))
	c.bytesSent.Add(uint64(bytes))
}

// snapshot reads every counter. Each is exact; counters read a moment
// apart may disagree by the events that landed in between.
func (c *statsCell) snapshot() Stats {
	return Stats{
		MessagesSent:      c.messagesSent.Load(),
		MessagesDelivered: c.messagesDelivered.Load(),
		MessagesDropped:   c.messagesDropped.Load(),
		TimersFired:       c.timersFired.Load(),
		FramesSent:        c.framesSent.Load(),
		FramesReceived:    c.framesReceived.Load(),
		EnvelopesSent:     c.envelopesSent.Load(),
		EnvelopesReceived: c.envelopesReceived.Load(),
		BytesSent:         c.bytesSent.Load(),
		BytesReceived:     c.bytesReceived.Load(),
		Reconnects:        c.reconnects.Load(),
	}
}
