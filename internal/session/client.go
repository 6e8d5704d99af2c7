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
// With a resilience Policy set, an unresponsive server is retried with
// backoff and failed over through a transport.Sender, which a
// per-server circuit breaker guards, and so is a request a server
// answers TimedOut (its guarantees did not hold in time): the stored
// request is resent verbatim, so the MinVec floor travels with it and
// the guarantees hold at whichever server finally serves it, while the
// request id lets servers apply a retried write at most once.
type Client struct {
	id string
	g  Guarantees

	tok Token // the session: its read and write vectors

	nextID   uint64
	readCBs  map[uint64]func(ReadResult)
	writeCBs map[uint64]func(WriteResult)
	keys     map[uint64]string // by request id, with a Policy: the key a give-up reports

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

	out transport.Sender
}

// NewClient returns a session client with the given guarantees.
func NewClient(id string, g Guarantees) *Client {
	return &Client{
		id:       id,
		g:        g,
		tok:      Token{Read: clock.Vector{}, Write: clock.Vector{}},
		readCBs:  make(map[uint64]func(ReadResult)),
		writeCBs: make(map[uint64]func(WriteResult)),
		keys:     make(map[uint64]string),
		out:      transport.Sender{Self: id},
	}
}

// OnStart implements transport.Handler.
func (c *Client) OnStart(transport.Env) {}

// OnTimer implements transport.Handler: a retry, or a give-up when the
// budget is spent.
func (c *Client) OnTimer(env transport.Env, tag any) {
	if t, ok := tag.(transport.RetryTag); ok && c.out.Retry(env, t.ID) {
		c.giveUp(t.ID)
	}
}

// giveUp delivers a local timeout after the budget is exhausted.
func (c *Client) giveUp(id uint64) {
	key := c.keys[id]
	delete(c.keys, id)
	if cb, ok := c.readCBs[id]; ok {
		delete(c.readCBs, id)
		if cb != nil {
			cb(ReadResult{Key: key, TimedOut: true})
		}
		return
	}
	if cb := c.writeCBs[id]; cb != nil {
		cb(WriteResult{Key: key, TimedOut: true})
	}
	delete(c.writeCBs, id)
}

// OnMessage implements transport.Handler.
func (c *Client) OnMessage(env transport.Env, from string, msg transport.Message) {
	switch m := msg.(type) {
	case sreadResp:
		if !c.answered(env, m.ID, from, m.TimedOut) {
			return
		}
		cb := c.readCBs[m.ID]
		delete(c.readCBs, m.ID)
		c.tok.served(m)
		if cb != nil {
			cb(ReadResult{Key: m.Key, Value: m.Val, OK: m.OK, TimedOut: m.TimedOut})
		}
	case swriteResp:
		if !c.answered(env, m.ID, from, m.TimedOut) {
			return
		}
		cb := c.writeCBs[m.ID]
		delete(c.writeCBs, m.ID)
		c.tok.served(m)
		if cb != nil {
			cb(WriteResult{TimedOut: m.TimedOut})
		}
	}
}

// answered takes server from's answer to request id, reporting whether
// it completes the request. A server that gave up waiting for its
// guarantees answers timedOut; then another server may already be caught
// up, and the request goes there while the budget lasts.
func (c *Client) answered(env transport.Env, id uint64, from string, timedOut bool) bool {
	if timedOut && c.out.Resend(env, id) {
		return false
	}
	c.out.Answered(env, id, from)
	delete(c.keys, id)
	return true
}

// send dispatches a request, arming retry state when a Policy is set.
func (c *Client) send(env transport.Env, server, key string, id uint64, msg transport.Message) {
	if c.Policy != nil && c.out.Policy == nil {
		c.out.Policy = c.Policy.Normalized()
	}
	c.out.Nodes, c.out.Counters, c.out.Directory = c.Servers, c.Counters, c.Directory
	if c.out.Policy != nil {
		c.keys[id] = key
	}
	c.out.Send(env, id, server, msg)
}

// Read reads key at server, blocking there until the selected guarantees
// hold.
func (c *Client) Read(env transport.Env, server, key string, cb func(ReadResult)) {
	c.nextID++
	c.readCBs[c.nextID] = cb
	c.send(env, server, key, c.nextID, sread{ID: c.nextID, Key: key, MinVec: c.tok.floor(c.g, true)})
}

// Write writes key=value at server, blocking there until the selected
// guarantees hold.
func (c *Client) Write(env transport.Env, server, key string, value []byte, cb func(WriteResult)) {
	c.nextID++
	c.writeCBs[c.nextID] = cb
	c.send(env, server, key, c.nextID, swrite{ID: c.nextID, Key: key, Val: value, MinVec: c.tok.floor(c.g, false)})
}

// Delete tombstones key at server under the same write guarantees.
func (c *Client) Delete(env transport.Env, server, key string, cb func(WriteResult)) {
	c.nextID++
	c.writeCBs[c.nextID] = cb
	c.send(env, server, key, c.nextID, swrite{ID: c.nextID, Key: key, Deleted: true, MinVec: c.tok.floor(c.g, false)})
}

// ID returns the client's simulator id.
func (c *Client) ID() string { return c.id }
