// Package sim is a deterministic discrete-event simulator for distributed
// protocols. It models a cluster of single-threaded actor nodes exchanging
// messages over links with configurable latency, loss, duplication, and
// partitions, under a virtual clock.
//
// Every replication protocol in this repository (quorum, gossip, causal,
// consensus, primary-copy) runs on this substrate. Because the simulator
// owns the only clock and the only random number generator, and breaks
// event-time ties by sequence number, a run is a pure function of its seed:
// every anomaly an experiment reports can be replayed exactly.
//
// This is the substitution (per DESIGN.md) for the geo-distributed testbeds
// used by the systems the tutorial surveys: consistency anomalies,
// staleness, convergence time and availability are functions of message
// ordering and timing, which the simulator reproduces exactly.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/transport"
)

// The actor contract — Message, Handler, Env, TimerID — is shared with
// internal/transport: the simulator and the real transports implement
// the same surface, so a protocol node written against sim.Env runs
// unmodified on a deterministic virtual cluster, an in-process loopback,
// or real TCP. The aliases keep sim the canonical name protocols import
// while transport owns the single definition.

// Message is any protocol payload exchanged between nodes. Payloads should
// be treated as immutable once sent: the simulator delivers the same value
// it was handed (it does not serialize).
type Message = transport.Message

// Handler is the behaviour of a node. The simulator invokes the handler
// single-threaded, so implementations need no locking for state that only
// the handler touches.
type Handler = transport.Handler

// Env is the interface a running node uses to interact with the world. An
// Env is only valid during the handler invocation it was passed to. Under
// the simulator, Now is virtual time, Send traverses the cluster's latency
// model and partitions, and Rand is the cluster's seeded source.
type Env = transport.Env

// TimerID identifies a pending timer for cancellation.
type TimerID = transport.TimerID

// Config configures a Cluster.
type Config struct {
	// Seed seeds the cluster's single random source.
	Seed int64
	// Latency decides delivery delay and loss per transmission. If nil,
	// DefaultLatency is used.
	Latency LatencyModel
	// SizeOf measures a message's wire size in bytes, for bandwidth
	// accounting. If nil, messages that implement interface{ Size() int }
	// are measured and all others count as 0.
	SizeOf func(Message) int
	// Trace, if non-nil, receives one line per executed event (delivery,
	// timer, call) in execution order. Because a run is a pure function of
	// its seed, two runs with identical configuration must produce
	// byte-identical traces — the determinism regression tests rely on it.
	Trace func(line string)
	// OnDeliver, if non-nil, observes every successful message delivery:
	// (from, to, virtual delivery time). It runs before the recipient's
	// handler. Failure detectors hook here — a delivered message is
	// evidence, at the recipient, that the sender is alive. The hook must
	// be deterministic (no wall clock, no private randomness).
	OnDeliver func(from, to string, at time.Duration)
}

// DefaultLatency is used when Config.Latency is nil: a uniform 1–5 ms LAN.
var DefaultLatency = Uniform(time.Millisecond, 5*time.Millisecond)

type eventKind uint8

const (
	evDeliver eventKind = iota
	evTimer
	evCall
)

type event struct {
	at   time.Duration
	seq  uint64 // ties broken by insertion order for determinism
	kind eventKind

	// evDeliver
	from, to string
	msg      Message

	// evTimer
	node  string
	tag   any
	timer TimerID
	epoch uint64

	// evCall
	fn func()

	// target resolves the destination node once at schedule time
	// (deliveries and timers), so the executor needs no map lookup.
	// nil for evCall and for deliveries to unknown ids.
	target *node
}

// eventQueue is a 4-ary min-heap of events ordered by (at, seq). The
// wider fan-in halves the tree height versus a binary heap and keeps
// parent/child nodes on the same cache line; holding *event directly
// (instead of container/heap's interface boxing) removes an allocation
// and a type assertion per scheduled event. The (at, seq) key is a
// total order, so any correct heap pops events in exactly the same
// sequence — determinism does not depend on the heap's internal layout.
type eventQueue struct {
	a []*event
}

func eventLess(x, y *event) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

func (q *eventQueue) len() int    { return len(q.a) }
func (q *eventQueue) min() *event { return q.a[0] }
func (q *eventQueue) push(e *event) {
	q.a = append(q.a, e)
	i := len(q.a) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(q.a[i], q.a[p]) {
			break
		}
		q.a[i], q.a[p] = q.a[p], q.a[i]
		i = p
	}
}

func (q *eventQueue) pop() *event {
	a := q.a
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = nil
	a = a[:n]
	q.a = a
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventLess(a[c], a[best]) {
				best = c
			}
		}
		if !eventLess(a[best], a[i]) {
			break
		}
		a[i], a[best] = a[best], a[i]
		i = best
	}
	return top
}

type node struct {
	id      string
	handler Handler
	up      bool
	epoch   uint64 // bumped on crash so stale timers are discarded
	group   int    // cached partition group (see Cluster.Partition)
	envc    env    // reusable Env passed to every handler invocation
}

// Stats accumulates network accounting for a run.
type Stats struct {
	MessagesSent       uint64
	MessagesDelivered  uint64
	MessagesDropped    uint64 // lost by the latency model, a partition, or a blocked link
	MessagesDuplicated uint64 // extra copies injected by a Duplicator latency model
	BytesDelivered     uint64
	TimersFired        uint64
}

// Cluster is a simulated distributed system. It is not safe for concurrent
// use: drive it from one goroutine.
type Cluster struct {
	cfg    Config
	rng    *rand.Rand
	now    time.Duration
	seq    uint64
	queue  eventQueue
	free   []*event // recycled events; the queue's steady state allocates nothing
	nodes  map[string]*node
	order  []string // node ids in AddNode order, for deterministic iteration
	cancel map[TimerID]bool
	nextID TimerID

	// Partition state. Nodes cache their group on the node struct so the
	// per-send reachability check is two integer compares when a
	// partition is active and a single bool test when none is — the
	// overwhelmingly common case pays no map lookups at all. The map
	// keeps groups for ids that are not registered nodes (pure clients).
	partActive bool
	partition  map[string]int     // client id -> partition group; absent means group 0
	blocked    map[[2]string]bool // directed links severed by BlockLink

	stats Stats
}

// New creates a cluster with the given configuration.
func New(cfg Config) *Cluster {
	if cfg.Latency == nil {
		cfg.Latency = DefaultLatency
	}
	return &Cluster{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		nodes:     make(map[string]*node),
		cancel:    make(map[TimerID]bool),
		partition: make(map[string]int),
		blocked:   make(map[[2]string]bool),
	}
}

// AddNode registers a node. It panics if the id is already taken; node
// topology is fixed per experiment, so a duplicate id is a programming
// error. The node's OnStart runs at the current virtual time, before the
// next Run step.
func (c *Cluster) AddNode(id string, h Handler) {
	if _, ok := c.nodes[id]; ok {
		panic(fmt.Sprintf("sim: duplicate node id %q", id))
	}
	n := &node{id: id, handler: h, up: true, group: c.partition[id]}
	n.envc = env{c: c, n: n}
	c.nodes[id] = n
	c.order = append(c.order, id)
	c.At(0, func() {
		if n.up {
			h.OnStart(&n.envc)
		}
	})
}

// Nodes returns node ids in registration order.
func (c *Cluster) Nodes() []string {
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// Now returns the current virtual time.
func (c *Cluster) Now() time.Duration { return c.now }

// Rand returns the cluster's random source, for workload generation that
// must share the deterministic stream.
func (c *Cluster) Rand() *rand.Rand { return c.rng }

// Stats returns a snapshot of network accounting.
func (c *Cluster) Stats() Stats { return c.stats }

// At schedules fn to run at absolute virtual time at (or immediately next
// if at is in the past). Use it to inject client operations and faults.
func (c *Cluster) At(at time.Duration, fn func()) {
	if at < c.now {
		at = c.now
	}
	e := c.alloc()
	e.at, e.kind, e.fn = at, evCall, fn
	c.push(e)
}

// After schedules fn to run d after the current virtual time.
func (c *Cluster) After(d time.Duration, fn func()) { c.At(c.now+d, fn) }

// alloc takes an event from the free list (or the allocator), zeroed.
func (c *Cluster) alloc() *event {
	if n := len(c.free); n > 0 {
		e := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		return e
	}
	return &event{}
}

// recycle returns an executed (or discarded) event to the free list,
// clearing payload references so they don't outlive the event.
func (c *Cluster) recycle(e *event) {
	*e = event{}
	c.free = append(c.free, e)
}

func (c *Cluster) push(e *event) {
	e.seq = c.seq
	c.seq++
	c.queue.push(e)
}

// Send injects a message from a pseudo-sender outside the cluster (for
// example a test acting as a client). Delivery still traverses the latency
// model, with from treated as colocated with to unless the model says
// otherwise.
func (c *Cluster) Send(from, to string, msg Message) {
	c.send(c.nodes[from], from, to, msg)
}

// send queues delivery of msg. fromN is from's node when the sender is a
// registered node (nil for pure clients); resolving both endpoints once
// here keeps the partition check and the delivery step map-free.
func (c *Cluster) send(fromN *node, from, to string, msg Message) {
	c.stats.MessagesSent++
	toN := c.nodes[to]
	if c.unreachable(fromN, toN, from, to) {
		c.stats.MessagesDropped++
		return
	}
	copies := 1
	if dup, ok := c.cfg.Latency.(Duplicator); ok {
		if n := dup.Copies(from, to, c.rng); n > 1 {
			copies = n
			c.stats.MessagesDuplicated += uint64(n - 1)
		}
	}
	for i := 0; i < copies; i++ {
		d, ok := c.cfg.Latency.Sample(from, to, c.rng)
		if !ok {
			c.stats.MessagesDropped++
			continue
		}
		e := c.alloc()
		e.at, e.kind, e.from, e.to, e.msg, e.target = c.now+d, evDeliver, from, to, msg, toN
		c.push(e)
	}
}

// unreachable is the hot-path reachability check: with no partition and
// no blocked links (the common case) it is two length tests; with a
// partition active, registered nodes compare cached group ints.
func (c *Cluster) unreachable(fromN, toN *node, from, to string) bool {
	if c.partActive {
		var gf, gt int
		if fromN != nil {
			gf = fromN.group
		} else {
			gf = c.partition[from]
		}
		if toN != nil {
			gt = toN.group
		} else {
			gt = c.partition[to]
		}
		if gf != gt {
			return true
		}
	}
	return len(c.blocked) != 0 && c.blocked[[2]string{from, to}]
}

func (c *Cluster) partitioned(from, to string) bool {
	return c.unreachable(c.nodes[from], c.nodes[to], from, to)
}

// Partition splits the cluster into the given groups: messages between
// different groups are dropped until Heal. Nodes not named in any group
// join group 0 (together with the first group). Injected client messages
// use the client id's group, which defaults to 0.
func (c *Cluster) Partition(groups ...[]string) {
	c.partition = make(map[string]int)
	for _, n := range c.nodes {
		n.group = 0
	}
	active := false
	for gi, g := range groups {
		for _, id := range g {
			c.partition[id] = gi
			if n, ok := c.nodes[id]; ok {
				n.group = gi
			}
			if gi != 0 {
				active = true
			}
		}
	}
	c.partActive = active
}

// BlockLink severs the directed link from -> to: messages in that
// direction are dropped until UnblockLink or Heal. Unlike Partition's
// disjoint groups, link blocking expresses asymmetric and non-transitive
// failures (ring and bridge partitions, one-way losses).
func (c *Cluster) BlockLink(from, to string) { c.blocked[[2]string{from, to}] = true }

// UnblockLink restores the directed link from -> to.
func (c *Cluster) UnblockLink(from, to string) { delete(c.blocked, [2]string{from, to}) }

// Heal removes all partitions and blocked links.
func (c *Cluster) Heal() {
	c.partition = make(map[string]int)
	c.blocked = make(map[[2]string]bool)
	for _, n := range c.nodes {
		n.group = 0
	}
	c.partActive = false
}

// Reachable reports whether messages currently flow from a to b.
func (c *Cluster) Reachable(a, b string) bool { return !c.partitioned(a, b) }

// Crash takes a node down: pending and future messages and timers to it
// are discarded until Restart.
func (c *Cluster) Crash(id string) {
	n, ok := c.nodes[id]
	if !ok {
		panic(fmt.Sprintf("sim: crash of unknown node %q", id))
	}
	n.up = false
	n.epoch++
}

// Restart boots a crashed node again; its handler's OnStart runs at the
// current virtual time. Handler state is whatever the handler kept — a
// handler modelling loss of volatile state must reset itself in OnStart.
func (c *Cluster) Restart(id string) {
	n, ok := c.nodes[id]
	if !ok {
		panic(fmt.Sprintf("sim: restart of unknown node %q", id))
	}
	if n.up {
		return
	}
	n.up = true
	c.At(c.now, func() {
		if n.up {
			n.handler.OnStart(&n.envc)
		}
	})
}

// Up reports whether the node is currently running.
func (c *Cluster) Up(id string) bool {
	n, ok := c.nodes[id]
	return ok && n.up
}

// Step executes the next pending event. It returns false when the queue is
// empty.
func (c *Cluster) Step() bool { return c.stepUntil(math.MaxInt64) }

// stepUntil executes the next pending event due at or before until,
// discarding the cancelled timers and undeliverable messages it meets on
// the way. It returns false when no event is due by until: an event it
// discards does not let it run one past the horizon.
func (c *Cluster) stepUntil(until time.Duration) bool {
	for c.queue.len() > 0 && c.queue.min().at <= until {
		e := c.queue.pop()
		c.now = e.at
		switch e.kind {
		case evCall:
			c.trace("call", e)
			fn := e.fn
			c.recycle(e)
			fn()
			return true
		case evDeliver:
			n := e.target
			if n == nil || !n.up {
				c.stats.MessagesDropped++
				c.recycle(e)
				continue
			}
			c.trace("deliver", e)
			c.stats.MessagesDelivered++
			c.stats.BytesDelivered += uint64(c.sizeOf(e.msg))
			if c.cfg.OnDeliver != nil {
				c.cfg.OnDeliver(e.from, e.to, e.at)
			}
			from, msg := e.from, e.msg
			c.recycle(e)
			n.handler.OnMessage(&n.envc, from, msg)
			return true
		case evTimer:
			n := e.target
			cancelled := len(c.cancel) != 0 && c.cancel[e.timer]
			if n == nil || !n.up || n.epoch != e.epoch || cancelled {
				if cancelled {
					delete(c.cancel, e.timer)
				}
				c.recycle(e)
				continue
			}
			c.trace("timer", e)
			c.stats.TimersFired++
			tag := e.tag
			c.recycle(e)
			n.handler.OnTimer(&n.envc, tag)
			return true
		}
	}
	return false
}

// trace emits one deterministic line per executed event. Message and tag
// payloads are identified by type only: values may hold maps or pointers
// whose formatting is either nondeterministic or address-dependent, while
// type names are stable across runs.
func (c *Cluster) trace(kind string, e *event) {
	if c.cfg.Trace == nil {
		return
	}
	switch e.kind {
	case evDeliver:
		c.cfg.Trace(fmt.Sprintf("%d %s %s->%s %T", e.at, kind, e.from, e.to, e.msg))
	case evTimer:
		c.cfg.Trace(fmt.Sprintf("%d %s %s %T", e.at, kind, e.node, e.tag))
	default:
		c.cfg.Trace(fmt.Sprintf("%d %s", e.at, kind))
	}
}

func (c *Cluster) sizeOf(msg Message) int {
	if c.cfg.SizeOf != nil {
		return c.cfg.SizeOf(msg)
	}
	if s, ok := msg.(interface{ Size() int }); ok {
		return s.Size()
	}
	return 0
}

// Run executes events until the queue is empty or virtual time would
// exceed until. Events at exactly until still run.
func (c *Cluster) Run(until time.Duration) {
	for c.stepUntil(until) {
	}
	if c.now < until {
		c.now = until
	}
}

// RunAll executes events until the queue drains. Protocols with periodic
// timers never drain; use Run with a horizon for those.
func (c *Cluster) RunAll() {
	for c.Step() {
	}
}

// ClientEnv returns an Env for the client identified by id, used to
// invoke protocol client methods from scheduled callbacks. If id is a
// registered node (the usual case — clients are nodes so they can receive
// responses), the env has full capability including timers; otherwise it
// supports Send, Now, and Rand, and timers panic.
func (c *Cluster) ClientEnv(id string) Env {
	if n, ok := c.nodes[id]; ok {
		return &n.envc
	}
	return &clientEnv{c: c, id: id}
}

type clientEnv struct {
	c  *Cluster
	id string
}

func (e *clientEnv) ID() string                  { return e.id }
func (e *clientEnv) Now() time.Duration          { return e.c.now }
func (e *clientEnv) Rand() *rand.Rand            { return e.c.rng }
func (e *clientEnv) Send(to string, msg Message) { e.c.send(nil, e.id, to, msg) }
func (e *clientEnv) SetTimer(time.Duration, any) TimerID {
	panic("sim: client env cannot set timers; schedule with Cluster.After")
}
func (e *clientEnv) Cancel(TimerID)   {}
func (e *clientEnv) Domain() int      { return 0 }
func (e *clientEnv) Heartbeats() bool { return false }

// env implements Env for one handler invocation.
type env struct {
	c *Cluster
	n *node
}

func (e *env) ID() string                  { return e.n.id }
func (e *env) Now() time.Duration          { return e.c.now }
func (e *env) Rand() *rand.Rand            { return e.c.rng }
func (e *env) Send(to string, msg Message) { e.c.send(e.n, e.n.id, to, msg) }

// Domain is 0: the simulator runs every node in one execution domain.
func (e *env) Domain() int { return 0 }

// Heartbeats is false: the simulator's detector sees only the messages
// the protocols send (Config.OnDeliver).
func (e *env) Heartbeats() bool { return false }

func (e *env) SetTimer(d time.Duration, tag any) TimerID {
	e.c.nextID++
	id := e.c.nextID
	ev := e.c.alloc()
	ev.at = e.c.now + d
	ev.kind = evTimer
	ev.node = e.n.id
	ev.tag = tag
	ev.timer = id
	ev.epoch = e.n.epoch
	ev.target = e.n
	e.c.push(ev)
	return id
}

func (e *env) Cancel(id TimerID) {
	if id != 0 {
		e.c.cancel[id] = true
	}
}
