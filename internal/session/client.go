package session

import (
	"repro/internal/clock"
	"repro/internal/resilience"
	"repro/internal/transport"
)

// Guarantees selects which of the four session guarantees a session
// enforces. The zero value is plain eventual consistency.
type Guarantees struct {
	ReadYourWrites    bool
	MonotonicReads    bool
	WritesFollowReads bool
	MonotonicWrites   bool
}

// All enables all four guarantees (Bayou's "causal session").
func All() Guarantees {
	return Guarantees{ReadYourWrites: true, MonotonicReads: true, WritesFollowReads: true, MonotonicWrites: true}
}

// ReadResult is the completion of a session read.
type ReadResult struct {
	Key      string
	Value    []byte
	OK       bool
	TimedOut bool
}

// WriteResult is the completion of a session write.
type WriteResult struct {
	Key      string
	TimedOut bool
}

// Client is a session client: it tracks the session's read and write
// vectors and stamps each operation with the minimum server state the
// selected guarantees demand. Register it as a simulator node.
//
// With a resilience Policy set, an unresponsive (or guarantee-blocked
// and timed-out) server is retried with backoff and failed over: the
// stored request is resent verbatim, so the MinVec floor travels with
// it and the guarantees hold at whichever server finally serves it,
// while the request id lets servers apply a retried write at most once.
type Client struct {
	id string
	g  Guarantees

	tok Token // the session: its read and write vectors

	nextID   uint64
	readCBs  map[uint64]func(ReadResult)
	writeCBs map[uint64]func(WriteResult)

	// Servers lists the session servers in failover order. Required for
	// retries (with Policy set).
	Servers []string
	// Policy enables client-side resilience when non-nil.
	Policy *resilience.Policy
	// Counters receives resilience event counts. May be nil.
	Counters *resilience.Counters
	// Directory, when set, lets failover skip servers the failure
	// detector suspects.
	Directory *resilience.Directory

	ops map[uint64]*sessionOp
}

// sessionOp is one in-flight resilient request; msg is stored verbatim
// so retries carry identical id and MinVec floor.
type sessionOp struct {
	key    string
	msg    transport.Message
	isRead bool
	server string
	budget *resilience.Budget
	retry  transport.TimerID
}

type sRetryTag struct{ id uint64 }

// NewClient returns a session client with the given guarantees.
func NewClient(id string, g Guarantees) *Client {
	return &Client{
		id:       id,
		g:        g,
		tok:      Token{Read: clock.Vector{}, Write: clock.Vector{}},
		readCBs:  make(map[uint64]func(ReadResult)),
		writeCBs: make(map[uint64]func(WriteResult)),
		ops:      make(map[uint64]*sessionOp),
	}
}

// OnStart implements transport.Handler.
func (c *Client) OnStart(transport.Env) {}

// OnTimer implements transport.Handler.
func (c *Client) OnTimer(env transport.Env, tag any) {
	t, ok := tag.(sRetryTag)
	if !ok {
		return
	}
	o, ok := c.ops[t.id]
	if !ok {
		return
	}
	if !c.resend(env, t.id, o) {
		c.giveUp(t.id, o)
	}
}

// resend retries an op against the next healthy server, within budget.
func (c *Client) resend(env transport.Env, id uint64, o *sessionOp) bool {
	if !o.budget.Attempt() {
		return false
	}
	next := c.pickServer(env, o.server)
	if next != o.server {
		o.server = next
		c.Counters.Failover()
	}
	c.Counters.Retry()
	env.Send(o.server, o.msg)
	o.retry = env.SetTimer(c.Policy.Backoff(o.budget.Attempts()-1, env.Rand()), sRetryTag{id: id})
	return true
}

// giveUp delivers a local timeout after the budget is exhausted.
func (c *Client) giveUp(id uint64, o *sessionOp) {
	delete(c.ops, id)
	if o.isRead {
		if cb := c.readCBs[id]; cb != nil {
			delete(c.readCBs, id)
			cb(ReadResult{Key: o.key, TimedOut: true})
		}
		delete(c.readCBs, id)
		return
	}
	if cb := c.writeCBs[id]; cb != nil {
		delete(c.writeCBs, id)
		cb(WriteResult{Key: o.key, TimedOut: true})
		return
	}
	delete(c.writeCBs, id)
}

// pickServer rotates to the server after `avoid`, skipping suspects;
// plain rotation when every alternative is suspected.
func (c *Client) pickServer(env transport.Env, avoid string) string {
	if len(c.Servers) == 0 {
		return avoid
	}
	now := env.Now()
	start := 0
	for i, s := range c.Servers {
		if s == avoid {
			start = i + 1
			break
		}
	}
	for i := 0; i < len(c.Servers); i++ {
		cand := c.Servers[(start+i)%len(c.Servers)]
		if cand == avoid {
			continue
		}
		if c.Directory != nil && c.Directory.Suspects(c.id, cand, now) {
			continue
		}
		return cand
	}
	for i := 0; i < len(c.Servers); i++ {
		cand := c.Servers[(start+i)%len(c.Servers)]
		if cand != avoid {
			return cand
		}
	}
	return avoid
}

// OnMessage implements transport.Handler.
func (c *Client) OnMessage(env transport.Env, _ string, msg transport.Message) {
	switch m := msg.(type) {
	case sreadResp:
		if o, ok := c.ops[m.ID]; ok {
			old := o.retry
			if m.TimedOut && c.resend(env, m.ID, o) {
				// The server gave up waiting for its guarantees; another
				// replica may already be caught up.
				env.Cancel(old)
				return
			}
			delete(c.ops, m.ID)
			env.Cancel(o.retry)
		}
		cb := c.readCBs[m.ID]
		delete(c.readCBs, m.ID)
		c.tok.served(m)
		if cb != nil {
			cb(ReadResult{Key: m.Key, Value: m.Val, OK: m.OK, TimedOut: m.TimedOut})
		}
	case swriteResp:
		if o, ok := c.ops[m.ID]; ok {
			old := o.retry
			if m.TimedOut && c.resend(env, m.ID, o) {
				env.Cancel(old)
				return
			}
			delete(c.ops, m.ID)
			env.Cancel(o.retry)
		}
		cb := c.writeCBs[m.ID]
		delete(c.writeCBs, m.ID)
		c.tok.served(m)
		if cb != nil {
			cb(WriteResult{TimedOut: m.TimedOut})
		}
	}
}

// send dispatches a request, arming retry state when a Policy is set.
func (c *Client) send(env transport.Env, server, key string, id uint64, msg transport.Message, isRead bool) {
	env.Send(server, msg)
	if c.Policy == nil {
		return
	}
	c.Policy = c.Policy.Normalized()
	o := &sessionOp{
		key:    key,
		msg:    msg,
		isRead: isRead,
		server: server,
		budget: resilience.NewBudget(c.Policy.MaxAttempts, true, c.Counters),
	}
	o.budget.Attempt()
	c.ops[id] = o
	o.retry = env.SetTimer(c.Policy.RetryTimeout, sRetryTag{id: id})
}

// Read reads key at server, blocking there until the selected guarantees
// hold.
func (c *Client) Read(env transport.Env, server, key string, cb func(ReadResult)) {
	c.nextID++
	c.readCBs[c.nextID] = cb
	c.send(env, server, key, c.nextID, sread{ID: c.nextID, Key: key, MinVec: c.tok.floor(c.g, true)}, true)
}

// Write writes key=value at server, blocking there until the selected
// guarantees hold.
func (c *Client) Write(env transport.Env, server, key string, value []byte, cb func(WriteResult)) {
	c.nextID++
	c.writeCBs[c.nextID] = cb
	c.send(env, server, key, c.nextID, swrite{ID: c.nextID, Key: key, Val: value, MinVec: c.tok.floor(c.g, false)}, false)
}

// Delete tombstones key at server under the same write guarantees.
func (c *Client) Delete(env transport.Env, server, key string, cb func(WriteResult)) {
	c.nextID++
	c.writeCBs[c.nextID] = cb
	c.send(env, server, key, c.nextID, swrite{ID: c.nextID, Key: key, Deleted: true, MinVec: c.tok.floor(c.g, false)}, false)
}

// ID returns the client's simulator id.
func (c *Client) ID() string { return c.id }
