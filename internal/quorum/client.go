package quorum

import (
	"errors"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/resilience"
	"repro/internal/transport"
)

// Client is a quorum-store client. Register it as a simulator node, then
// issue operations from scheduled callbacks; completion callbacks run when
// quorum responses arrive. A Client tracks the causal context per key so
// sequential writes through the same client supersede each other (the
// read-modify-write discipline DVVs expect).
//
// With a resilience Policy set, the client also tolerates coordinator
// failure: an unresponsive coordinator is retried with backoff and then
// failed over (the same request, verbatim, goes to another node — safe
// at-most-once because the coordinator derives the write's dot from the
// client id and request id), slow requests are hedged to a second
// coordinator after a latency percentile, and a per-coordinator circuit
// breaker steers load away from nodes that keep failing.
//
// A node may also coordinate a client's operation in place, when both
// live in one process (Node.CoordinatePut): such an operation runs on the
// node's goroutine, not the client's, and skips everything below that
// exists to survive a coordinator elsewhere.
type Client struct {
	id string

	// mu guards the state every operation of the client shares, whichever
	// goroutine runs it: the request-id floor and the per-key causal
	// context (with the failed puts folded in, see cover).
	mu      sync.Mutex
	nextID  uint64
	context map[string]clock.Vector

	// The rest is confined to the client's own loop.
	getCBs map[uint64]func(GetResult)
	puts   map[uint64]pendingPut
	keys   map[uint64]string

	// RequestTimeout bounds how long the client waits for any response
	// before failing the operation locally (for example when the chosen
	// coordinator is dead). Default 2s.
	RequestTimeout time.Duration

	// Nodes lists the storage nodes usable as coordinators, in failover
	// order. Required for retry/hedging (with Policy set).
	Nodes []string
	// Policy enables client-side resilience when non-nil.
	Policy *resilience.Policy
	// Counters receives resilience event counts. May be nil.
	Counters *resilience.Counters
	// Directory, when set, lets coordinator selection skip peers the
	// failure detector suspects.
	Directory *resilience.Directory

	ops      map[uint64]*clientOp
	breakers map[string]*resilience.Breaker
	rtt      resilience.Latency
	polNorm  bool
}

// pendingPut is a put (or delete) awaiting its answer.
type pendingPut struct {
	cb  func(PutResult)
	ctx clock.Vector // the context it carries: with its id, this names its dot
}

// clientOp is the in-flight state of one resilient request. The message
// is stored verbatim: every retry and hedge resends the identical bytes
// (same request id, same context), which is what makes them idempotent
// end to end.
type clientOp struct {
	key    string
	msg    transport.Message
	coord  string
	sent   time.Duration
	budget *resilience.Budget
	hedged bool
	retry  transport.TimerID
	hedge  transport.TimerID
}

// ErrNoResponse is returned when the coordinator never answered within
// the client's RequestTimeout.
var ErrNoResponse = errors.New("quorum: no response from coordinator")

type clientTimeout struct{ id uint64 }

type clientRetryTag struct{ id uint64 }

type clientHedgeTag struct{ id uint64 }

// NewClient returns a client with the given simulator node id.
func NewClient(id string) *Client {
	return &Client{
		id:             id,
		getCBs:         make(map[uint64]func(GetResult)),
		puts:           make(map[uint64]pendingPut),
		keys:           make(map[uint64]string),
		context:        make(map[string]clock.Vector),
		ops:            make(map[uint64]*clientOp),
		breakers:       make(map[string]*resilience.Breaker),
		RequestTimeout: 2 * time.Second,
	}
}

// StartIDsAt makes base the floor of the client's request ids: the next
// one is base+1. A client whose id outlives its process (a server names
// its gateways after the node) passes a floor above every id an earlier
// incarnation issued: the coordinator derives a put's dot from the
// client id and the request id, and replicas discard, yet still ack, a
// dot they have already seen. Call it before the first operation.
func (c *Client) StartIDsAt(base uint64) {
	c.mu.Lock()
	c.nextID = base
	c.mu.Unlock()
}

// OnStart implements transport.Handler.
func (c *Client) OnStart(transport.Env) {}

// OnTimer implements transport.Handler.
func (c *Client) OnTimer(env transport.Env, tag any) {
	switch t := tag.(type) {
	case clientTimeout:
		c.fail(t.id)
	case clientRetryTag:
		c.onRetryTimer(env, t.id)
	case clientHedgeTag:
		c.onHedgeTimer(env, t.id)
	}
}

func (c *Client) fail(id uint64) {
	delete(c.ops, id)
	key := c.keys[id]
	if p, ok := c.puts[id]; ok {
		delete(c.puts, id)
		delete(c.keys, id)
		// Unanswered is not unapplied, and the dot is the one the
		// coordinator would have derived.
		c.mu.Lock()
		c.cover(key, clock.DVV{Dot: clientDot(c.id, id, p.ctx), Context: p.ctx})
		c.mu.Unlock()
		if p.cb != nil {
			p.cb(PutResult{Key: key, Err: ErrNoResponse})
		}
	}
	if cb, ok := c.getCBs[id]; ok {
		delete(c.getCBs, id)
		delete(c.keys, id)
		if cb != nil {
			cb(GetResult{Key: key, Err: ErrNoResponse})
		}
	}
}

// onRetryTimer handles a silent coordinator: record the failure against
// its breaker, then (budget permitting) resend the request — to a
// different coordinator when one looks healthier.
func (c *Client) onRetryTimer(env transport.Env, id uint64) {
	o, ok := c.ops[id]
	if !ok {
		return
	}
	now := env.Now()
	c.breaker(o.coord).Failure(now)
	if !o.budget.Attempt() {
		return // the RequestTimeout will deliver the failure
	}
	next := c.pickCoordinator(now, o.coord)
	if next != o.coord {
		o.coord = next
		c.Counters.Failover()
	}
	c.Counters.Retry()
	env.Send(o.coord, o.msg)
	o.retry = env.SetTimer(c.Policy.Backoff(o.budget.Attempts()-1, env.Rand()), clientRetryTag{id: id})
}

// onHedgeTimer duplicates a slow request to a second coordinator without
// abandoning the first — whichever answers first wins (both answers are
// the same operation, so the loser is dropped by the callback dedup).
func (c *Client) onHedgeTimer(env transport.Env, id uint64) {
	o, ok := c.ops[id]
	if !ok || o.hedged {
		return
	}
	alt := c.pickCoordinator(env.Now(), o.coord)
	if alt == o.coord {
		return
	}
	o.hedged = true
	c.Counters.Hedge()
	env.Send(alt, o.msg)
}

// pickCoordinator returns the next coordinator after `avoid` in Nodes
// order, skipping nodes whose breaker is open or that the failure
// detector suspects; if every candidate is skipped, plain rotation wins
// (some coordinator must be tried).
func (c *Client) pickCoordinator(now time.Duration, avoid string) string {
	if len(c.Nodes) == 0 {
		return avoid
	}
	start := 0
	for i, n := range c.Nodes {
		if n == avoid {
			start = i + 1
			break
		}
	}
	for i := 0; i < len(c.Nodes); i++ {
		cand := c.Nodes[(start+i)%len(c.Nodes)]
		if cand == avoid {
			continue
		}
		if !c.breaker(cand).Allow(now) {
			continue
		}
		if c.Directory != nil && c.Directory.Suspects(c.id, cand, now) {
			continue
		}
		return cand
	}
	// All alternatives look unhealthy: rotate anyway.
	for i := 0; i < len(c.Nodes); i++ {
		cand := c.Nodes[(start+i)%len(c.Nodes)]
		if cand != avoid {
			return cand
		}
	}
	return avoid
}

func (c *Client) breaker(node string) *resilience.Breaker {
	b, ok := c.breakers[node]
	if !ok {
		b = resilience.NewBreaker(c.Policy, c.Counters)
		c.breakers[node] = b
	}
	return b
}

// OnMessage implements transport.Handler.
func (c *Client) OnMessage(env transport.Env, from string, msg transport.Message) {
	switch m := msg.(type) {
	case putResp:
		p, ok := c.puts[m.ID]
		if !ok {
			return
		}
		c.settle(env, m.ID, from)
		delete(c.puts, m.ID)
		key := c.keys[m.ID]
		delete(c.keys, m.ID)
		if res := c.putResult(key, m); p.cb != nil {
			p.cb(res)
		}
	case getResp:
		cb, ok := c.getCBs[m.ID]
		if !ok {
			return
		}
		c.settle(env, m.ID, from)
		delete(c.getCBs, m.ID)
		key := c.keys[m.ID]
		delete(c.keys, m.ID)
		if res := c.getResult(key, m); cb != nil {
			cb(res)
		}
	}
}

// putResult folds a put's answer into key's context and returns the
// put's result.
func (c *Client) putResult(key string, m putResp) PutResult {
	res := PutResult{Key: key, Context: m.Context, Sloppy: m.Sloppy}
	c.mu.Lock()
	if m.Err != "" {
		res.Err = errors.New(m.Err)
		c.cover(key, clock.DVV{Context: m.Context}) // a failing answer's context names the write too
	} else {
		c.context[key] = m.Context
	}
	c.mu.Unlock()
	return res
}

// getResult is putResult for a get: a successful read's context becomes
// key's.
func (c *Client) getResult(key string, m getResp) GetResult {
	res := GetResult{Key: key, Values: m.Values, Context: m.Context, Replicas: m.Replicas}
	if m.Err != "" {
		res.Err = errors.New(m.Err)
	} else {
		c.mu.Lock()
		c.context[key] = m.Context
		c.mu.Unlock()
	}
	return res
}

// settle closes out an op's resilience state on first response: feed the
// latency estimator, credit the responder's breaker, stop the timers.
func (c *Client) settle(env transport.Env, id uint64, from string) {
	o, ok := c.ops[id]
	if !ok {
		return
	}
	delete(c.ops, id)
	c.rtt.Observe(env.Now() - o.sent)
	c.breaker(from).Success()
	env.Cancel(o.retry)
	env.Cancel(o.hedge)
}

// send dispatches a request, arming the resilience machinery when a
// Policy is configured. All quorum requests are idempotent end to end
// (reads trivially; writes because the dot is derived from the request
// id), so every op gets the full retry budget.
func (c *Client) send(env transport.Env, coordinator string, id uint64, key string, msg transport.Message) {
	env.SetTimer(c.RequestTimeout, clientTimeout{id: id})
	env.Send(coordinator, msg)
	if c.Policy == nil {
		return
	}
	if !c.polNorm {
		c.Policy = c.Policy.Normalized()
		c.polNorm = true
	}
	o := &clientOp{
		key:    key,
		msg:    msg,
		coord:  coordinator,
		sent:   env.Now(),
		budget: resilience.NewBudget(c.Policy.MaxAttempts, true, c.Counters),
	}
	o.budget.Attempt()
	c.ops[id] = o
	o.retry = env.SetTimer(c.Policy.RetryTimeout, clientRetryTag{id: id})
	if c.Policy.HedgeQuantile > 0 && len(c.Nodes) > 1 {
		o.hedge = env.SetTimer(c.rtt.HedgeDelay(c.Policy), clientHedgeTag{id: id})
	}
}

// Put writes key=value through coordinator (any store node), invoking cb
// on completion. The client's stored context for the key is attached, so
// this write supersedes everything the client has read or written before,
// a put of the key that failed included (see cover).
func (c *Client) Put(env transport.Env, coordinator, key string, value []byte, cb func(PutResult)) {
	id, ctx := c.next(key)
	c.put(env, coordinator, clientPut{ID: id, Key: key, Value: value, Context: ctx}, cb)
}

// PutBlind writes without any causal context (a client that did not read
// first) — the sibling-generating pattern the DVV machinery bounds.
func (c *Client) PutBlind(env transport.Env, coordinator, key string, value []byte, cb func(PutResult)) {
	id, _ := c.next(key)
	c.put(env, coordinator, clientPut{ID: id, Key: key, Value: value}, cb)
}

// Delete tombstones key through coordinator.
func (c *Client) Delete(env transport.Env, coordinator, key string, cb func(PutResult)) {
	id, ctx := c.next(key)
	c.put(env, coordinator, clientPut{ID: id, Key: key, Deleted: true, Context: ctx}, cb)
}

func (c *Client) put(env transport.Env, coordinator string, m clientPut, cb func(PutResult)) {
	c.puts[m.ID] = pendingPut{cb: cb, ctx: m.Context}
	c.keys[m.ID] = m.Key
	c.send(env, coordinator, m.ID, m.Key, m)
}

// next mints the client's next request id and reads key's context.
func (c *Client) next(key string) (uint64, clock.Vector) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	return c.nextID, c.context[key]
}

// cover folds a put that failed into key's context. A put that times out
// may have been applied all the same, so the application's repeat of it
// must supersede it, not stand beside it as a sibling. w is the failed
// put's DVV; its dot is the same whichever coordinator ran it. Caller
// holds c.mu.
func (c *Client) cover(key string, w clock.DVV) {
	c.context[key] = w.Join(clock.DVV{Context: c.context[key]})
}

// Get reads key through coordinator, invoking cb with the merged sibling
// values.
func (c *Client) Get(env transport.Env, coordinator, key string, cb func(GetResult)) {
	c.GetR(env, coordinator, key, 0, cb)
}

// GetR reads key with a per-request read-quorum override — the SLA
// tiers' lever (R=1 is an eventual-tier read). r <= 0 uses the
// coordinator's configured quorum.
func (c *Client) GetR(env transport.Env, coordinator, key string, r int, cb func(GetResult)) {
	id, _ := c.next(key)
	c.getCBs[id] = cb
	c.keys[id] = key
	c.send(env, coordinator, id, key, clientGet{ID: id, Key: key, R: r})
}

// ID returns the client's node id.
func (c *Client) ID() string { return c.id }

// Context returns the client's current causal context for key (nil if the
// key was never read or written here).
func (c *Client) Context(key string) clock.Vector {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.context[key]
}

// CoordinatePut runs client c's put of key at this node, in place of
// c.Put with this node as the coordinator, for a client in the node's own
// process: the host calls it on the key's execution domain (ShardOf maps
// the key's messages there). The write is the one c.Put would send: the
// same request id from c's sequence, c's context for the key, and so the
// same dot. What differs is the hand-off. No message crosses to the node
// and back, and c arms no timer and keeps no retry state: the node's own
// Timeout, sloppy fallback and replica retransmission bound the put, and
// its answer reaches cb by a call, with the Env of the invocation the put
// completed in (see answer). c's context takes the answer in, as it would
// a putResp.
func (n *Node) CoordinatePut(env transport.Env, c *Client, key string, value []byte, cb func(transport.Env, PutResult)) {
	id, ctx := c.next(key)
	n.coordinatePut(env, c.id, clientPut{ID: id, Key: key, Value: value, Context: ctx},
		func(env transport.Env, m putResp) { cb(env, c.putResult(key, m)) })
}

// CoordinateDelete is CoordinatePut for c.Delete.
func (n *Node) CoordinateDelete(env transport.Env, c *Client, key string, cb func(transport.Env, PutResult)) {
	id, ctx := c.next(key)
	n.coordinatePut(env, c.id, clientPut{ID: id, Key: key, Deleted: true, Context: ctx},
		func(env transport.Env, m putResp) { cb(env, c.putResult(key, m)) })
}

// CoordinateGet is CoordinatePut for c.GetR.
func (n *Node) CoordinateGet(env transport.Env, c *Client, key string, r int, cb func(transport.Env, GetResult)) {
	id, _ := c.next(key)
	n.coordinateGet(env, c.id, clientGet{ID: id, Key: key, R: r},
		func(env transport.Env, m getResp) { cb(env, c.getResult(key, m)) })
}
