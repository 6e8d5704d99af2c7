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
// failure (see requests): an unresponsive coordinator is retried with
// backoff and then failed over, slow requests are hedged to a second
// coordinator, and a per-coordinator circuit breaker steers load away
// from nodes that keep failing.
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
	// order. Required for retry/hedging (with Policy set).
	Nodes []string
	// Policy enables client-side resilience when non-nil.
	Policy *resilience.Policy
	// Counters receives resilience event counts. May be nil.
	Counters *resilience.Counters
	// Directory, when set, lets coordinator selection skip peers the
	// failure detector suspects.
	Directory *resilience.Directory

	polNorm bool
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
		out:            newRequests(),
		RequestTimeout: requestTimeout,
	}
}

// OnStart implements transport.Handler.
func (c *Client) OnStart(transport.Env) {}

// OnTimer implements transport.Handler.
func (c *Client) OnTimer(env transport.Env, tag any) {
	if t, ok := tag.(requestTag); ok {
		c.out.onTimer(env, c.sender(), t)
	}
}

// OnMessage implements transport.Handler.
func (c *Client) OnMessage(env transport.Env, from string, msg transport.Message) {
	switch m := msg.(type) {
	case putResp:
		c.out.settle(env, c.sender(), m.ID, from, m)
	case getResp:
		c.out.settle(env, c.sender(), m.ID, from, m)
	}
}

// sender is how the client sends, read off its exported fields.
func (c *Client) sender() sender {
	if c.Policy != nil && !c.polNorm {
		c.Policy = c.Policy.Normalized()
		c.polNorm = true
	}
	return sender{id: c.id, nodes: c.Nodes, timeout: c.RequestTimeout, policy: c.Policy, counters: c.Counters, directory: c.Directory}
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
	c.out.send(env, c.sender(), coordinator, m.ID, &request{msg: m, key: m.Key, ctx: m.Context,
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
	c.out.send(env, c.sender(), coordinator, id, &request{msg: clientGet{ID: id, Key: key, R: r}, key: key,
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
