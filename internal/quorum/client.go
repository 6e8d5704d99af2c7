package quorum

import (
	"errors"
	"time"

	"repro/internal/clock"
	"repro/internal/geo"
	"repro/internal/resilience"
	"repro/internal/transport"
)

// Client is a quorum-store client. Register it as a simulator node, then
// issue operations from scheduled callbacks; completion callbacks run when
// quorum responses arrive. A Client tracks the causal context per key so
// sequential writes through the same client supersede each other (the
// read-modify-write discipline DVVs expect). It is confined to its own
// loop.
//
// With a resilience Policy set, the client also tolerates coordinator
// failure through a transport.Sender: an unresponsive coordinator is
// retried with backoff and then failed over, and a per-coordinator
// circuit breaker steers load away from nodes that keep failing. The
// client does not hedge: the coordinator hedges a slow read (see
// pendingRead.tick).
type Client struct {
	id      string
	nextID  uint64
	context map[string]clock.Vector // per key, with the failed puts folded in (see cover)
	out     requests

	// RequestTimeout bounds how long the client waits for any response
	// before failing the operation locally (for example when the chosen
	// coordinator is dead). Default 2s.
	RequestTimeout time.Duration

	// Nodes lists the storage nodes usable as coordinators, in failover
	// order. Required for failover (with Policy set).
	Nodes []string
	// Policy enables client-side resilience when non-nil.
	Policy *resilience.Policy
	// Counters receives resilience event counts. May be nil.
	Counters *resilience.Counters
	// Directory, when set, lets coordinator selection skip peers the
	// failure detector suspects.
	Directory *resilience.Directory
}

// ErrNoResponse is returned when the coordinator never answered within
// the client's RequestTimeout.
var ErrNoResponse = errors.New("quorum: no response from coordinator")

// requestTimeout is how long a sender waits for a coordinator's answer
// by default: past the coordinator's own quorum time-out and the sloppy
// fallback it may engage after it.
const requestTimeout = 2 * time.Second

// NewClient returns a client with the given simulator node id.
func NewClient(id string) *Client {
	return &Client{
		id:             id,
		context:        make(map[string]clock.Vector),
		out:            newRequests(requestTimeout, transport.Sender{Self: id}),
		RequestTimeout: requestTimeout,
	}
}

// OnStart implements transport.Handler.
func (c *Client) OnStart(transport.Env) {}

// OnTimer implements transport.Handler.
func (c *Client) OnTimer(env transport.Env, tag any) {
	switch t := tag.(type) {
	case deadlineTag:
		c.out.settle(env, t.id, "", nil)
	case transport.RetryTag:
		c.out.via.Retry(env, t.ID) // a spent budget waits for the deadline
	}
}

// OnMessage implements transport.Handler.
func (c *Client) OnMessage(env transport.Env, from string, msg transport.Message) {
	switch m := msg.(type) {
	case putResp:
		c.out.settle(env, m.ID, from, m)
	case getResp:
		c.out.settle(env, m.ID, from, m)
	}
}

// send sends msg, request id, to coordinator, with the resilience the
// client's exported fields set.
func (c *Client) send(env transport.Env, coordinator string, id uint64, msg transport.Message, r *request) {
	if c.Policy != nil && c.out.via.Policy == nil {
		c.out.via.Policy = c.Policy.Normalized()
	}
	c.out.timeout = c.RequestTimeout
	c.out.via.Nodes, c.out.via.Counters, c.out.via.Directory = c.Nodes, c.Counters, c.Directory
	c.out.send(env, coordinator, id, msg, r)
}

// Put writes key=value through coordinator (any store node), invoking cb
// on completion. The client's stored context for the key is attached, so
// this write supersedes everything the client has read or written before,
// a put of the key that failed included (see cover).
func (c *Client) Put(env transport.Env, coordinator, key string, value []byte, cb func(PutResult)) {
	c.put(env, coordinator, clientPut{ID: c.next(), Key: key, Value: value, Context: c.context[key]}, cb)
}

// PutBlind writes without any causal context (a client that did not read
// first) — the sibling-generating pattern the DVV machinery bounds.
func (c *Client) PutBlind(env transport.Env, coordinator, key string, value []byte, cb func(PutResult)) {
	c.put(env, coordinator, clientPut{ID: c.next(), Key: key, Value: value}, cb)
}

// Delete tombstones key through coordinator.
func (c *Client) Delete(env transport.Env, coordinator, key string, cb func(PutResult)) {
	c.put(env, coordinator, clientPut{ID: c.next(), Key: key, Deleted: true, Context: c.context[key]}, cb)
}

func (c *Client) put(env transport.Env, coordinator string, m clientPut, cb func(PutResult)) {
	c.send(env, coordinator, m.ID, m, &request{key: m.Key, ctx: m.Context,
		put: func(_ transport.Env, r PutResult) {
			if r.Err != nil {
				c.cover(m.Key, r.Context)
			} else {
				c.context[m.Key] = r.Context
			}
			if cb != nil {
				cb(r)
			}
		}})
}

// next mints the client's next request id.
func (c *Client) next() uint64 {
	c.nextID++
	return c.nextID
}

// cover folds a put that failed into key's context: w, the context its
// answer carried, covers it. A put that fails may have been applied all
// the same, so the application's repeat of it must supersede it, not
// stand beside it as a sibling. Its dot is the same whichever
// coordinator ran it, or none (see requests.settle).
func (c *Client) cover(key string, w clock.Vector) {
	c.context[key] = clock.DVV{Context: w}.Join(clock.DVV{Context: c.context[key]})
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
	id := c.next()
	c.send(env, coordinator, id, clientGet{ID: id, Key: key, R: r}, &request{key: key,
		get: func(_ transport.Env, res GetResult) {
			if res.Err == nil {
				c.context[key] = res.Context
			}
			if cb != nil {
				cb(res)
			}
		}})
}

// ID returns the client's node id.
func (c *Client) ID() string { return c.id }

// Context returns the client's current causal context for key (nil if the
// key was never read or written here).
func (c *Client) Context(key string) clock.Vector { return c.context[key] }

// putResult is the result a put's answer m delivers.
func putResult(key string, m putResp) PutResult {
	res := PutResult{Key: key, Context: m.Context, Sloppy: m.Sloppy}
	if m.Err != "" {
		res.Err = errors.New(m.Err)
	}
	return res
}

// getResult is putResult for a get, with its plan's tier and staleness.
func getResult(key string, m getResp, tier geo.Kind, staleMs int64) GetResult {
	res := GetResult{Key: key, Values: m.Values, Context: m.Context, Replicas: m.Replicas, Tier: tier, StaleMs: staleMs}
	if m.Err != "" {
		res.Err = errors.New(m.Err)
	}
	return res
}
