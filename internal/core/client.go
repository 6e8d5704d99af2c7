package core

import (
	"errors"

	"repro/internal/causal"
	"repro/internal/consensus"
	"repro/internal/gossip"
	"repro/internal/quorum"
	"repro/internal/replication"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Messages served by gossipAdapter, giving the gossip model an RPC
// surface like the other models.
type (
	gput struct {
		ID      uint64
		Key     string
		Val     []byte
		Deleted bool
	}
	gputResp struct {
		ID uint64
	}
	gget struct {
		ID  uint64
		Key string
	}
	ggetResp struct {
		ID  uint64
		Key string
		Val []byte
		OK  bool
	}
)

// gossipAdapter wraps a gossip node with client request handling.
type gossipAdapter struct {
	*gossip.Node
}

// OnMessage implements sim.Handler, serving client RPCs and delegating
// protocol traffic to the embedded node.
func (a *gossipAdapter) OnMessage(env sim.Env, from string, msg sim.Message) {
	switch m := msg.(type) {
	case gput:
		if m.Deleted {
			a.Node.Delete(env, m.Key)
		} else {
			a.Node.Put(env, m.Key, m.Val)
		}
		env.Send(from, gputResp{ID: m.ID})
	case gget:
		v, ok := a.Node.Get(m.Key)
		env.Send(from, ggetResp{ID: m.ID, Key: m.Key, Val: v, OK: ok})
	default:
		a.Node.OnMessage(env, from, msg)
	}
}

// Client is the unified client: the same Get/Put/Delete surface over any
// Model. Obtain one from Cluster.NewClient; operations must be issued
// from scheduled callbacks (Cluster.At / After) and complete through
// their callbacks as the simulation runs.
type Client struct {
	c         *Cluster
	id        string
	env       sim.Env
	preferred string

	// Exactly one of these is set, matching the cluster's model.
	q    *quorum.Client
	sess *session.Client
	caus *causal.Client
	pax  *consensus.Client
	prim *replication.Client
	gsp  *gossipClientNode
}

// gossipClientNode receives gossip-adapter responses for a core client.
// With a resilience policy its transport.Sender also retransmits
// unanswered RPCs to other replicas with backoff (safe: gget is
// read-only, a retried gput re-applies the same value under LWW).
type gossipClientNode struct {
	out    transport.Sender
	nextID uint64
	get    map[uint64]func(GetResult)
	put    map[uint64]func(PutResult)
}

func (g *gossipClientNode) OnStart(sim.Env) {}

// OnTimer retries an RPC. Once the budget is spent the callback stays:
// a very late response still completes the op.
func (g *gossipClientNode) OnTimer(env sim.Env, tag any) {
	if t, ok := tag.(transport.RetryTag); ok {
		g.out.Retry(env, t.ID)
	}
}

func (g *gossipClientNode) OnMessage(env sim.Env, from string, msg sim.Message) {
	switch m := msg.(type) {
	case gputResp:
		g.out.Answered(env, m.ID, from)
		cb := g.put[m.ID]
		delete(g.put, m.ID)
		if cb != nil {
			cb(PutResult{})
		}
	case ggetResp:
		g.out.Answered(env, m.ID, from)
		cb := g.get[m.ID]
		delete(g.get, m.ID)
		if cb != nil {
			res := GetResult{Key: m.Key}
			if m.OK {
				res.Values = [][]byte{m.Val}
			}
			cb(res)
		}
	}
}

// NewClient registers a client node named id and returns the unified
// client. For the Causal model the client is homed in the first DC; use
// NewClientIn to choose.
func (c *Cluster) NewClient(id string) *Client {
	return c.NewClientIn(id, "")
}

// NewClientIn registers a client homed in the given Causal data center
// (ignored by other models; pass "" for the default).
func (c *Cluster) NewClientIn(id, dc string) *Client {
	c.clients++
	cl := &Client{c: c, id: id}
	switch c.opts.Model {
	case Eventual:
		cl.gsp = &gossipClientNode{
			out: transport.Sender{Self: id},
			get: make(map[uint64]func(GetResult)), put: make(map[uint64]func(PutResult)),
		}
		if c.opts.Resilience != nil {
			cl.gsp.out.Nodes = c.nodeIDs
			cl.gsp.out.Policy = c.opts.Resilience
			cl.gsp.out.Counters = c.resCounters
			cl.gsp.out.Directory = c.resDir
		}
		c.sim.AddNode(id, cl.gsp)
	case Session:
		cl.sess = session.NewClient(id, *c.opts.Guarantees)
		if c.opts.Resilience != nil {
			cl.sess.Servers = c.nodeIDs
			cl.sess.Policy = c.opts.Resilience
			cl.sess.Counters = c.resCounters
			cl.sess.Directory = c.resDir
		}
		c.sim.AddNode(id, cl.sess)
	case Causal:
		if dc == "" {
			dc = c.causalTopo.DCs[0]
		}
		cl.caus = causal.NewClient(c.causalTopo, dc, id)
		if c.opts.Resilience != nil {
			cl.caus.Policy = c.opts.Resilience
			cl.caus.Counters = c.resCounters
		}
		c.sim.AddNode(id, cl.caus)
	case Quorum:
		cl.q = quorum.NewClient(id)
		if c.opts.Resilience != nil {
			cl.q.Nodes = c.nodeIDs
			cl.q.Policy = c.opts.Resilience
			cl.q.Counters = c.resCounters
			cl.q.Directory = c.resDir
		}
		c.sim.AddNode(id, cl.q)
	case PrimaryAsync, PrimarySync:
		cl.prim = replication.NewClient(id, c.nodeIDs[0])
		c.sim.AddNode(id, cl.prim)
	case Strong:
		cl.pax = consensus.NewClient(id, c.nodeIDs)
		if c.opts.Resilience != nil {
			cl.pax.Policy = c.opts.Resilience
			cl.pax.Counters = c.resCounters
			cl.pax.Directory = c.resDir
		}
		c.sim.AddNode(id, cl.pax)
	}
	cl.env = c.sim.ClientEnv(id)
	return cl
}

// ID returns the client's node id.
func (cl *Client) ID() string { return cl.id }

// Prefer pins the client to a specific storage node for models where any
// node can serve (Eventual, Session, Quorum coordinator). Pass "" to
// return to random selection.
func (cl *Client) Prefer(node string) { cl.preferred = node }

// anyNode picks a storage node for models where any node can serve.
func (cl *Client) anyNode() string {
	if cl.preferred != "" {
		return cl.preferred
	}
	ids := cl.c.nodeIDs
	return ids[cl.c.sim.Rand().Intn(len(ids))]
}

func errOf(s string) error {
	if s == "" {
		return nil
	}
	return errors.New(s)
}

// Get reads key; cb receives the (possibly multi-valued) result.
func (cl *Client) Get(key string, cb func(GetResult)) {
	switch {
	case cl.gsp != nil:
		cl.gsp.nextID++
		cl.gsp.get[cl.gsp.nextID] = cb
		cl.gsp.out.Send(cl.env, cl.gsp.nextID, cl.anyNode(), gget{ID: cl.gsp.nextID, Key: key})
	case cl.sess != nil:
		cl.sess.Read(cl.env, cl.anyNode(), key, func(r session.ReadResult) {
			res := GetResult{Key: key}
			if r.TimedOut {
				res.Err = ErrUnavailable
			} else if r.OK {
				res.Values = [][]byte{r.Value}
			}
			if cb != nil {
				cb(res)
			}
		})
	case cl.caus != nil:
		cl.caus.Get(cl.env, key, func(r causal.GetResult) {
			res := GetResult{Key: key}
			if r.OK {
				res.Values = [][]byte{r.Value}
			}
			if cb != nil {
				cb(res)
			}
		})
	case cl.q != nil:
		cl.q.Get(cl.env, cl.anyNode(), key, func(r quorum.GetResult) {
			res := GetResult{Key: key, Values: r.Values}
			if r.Err != nil {
				res.Err = ErrUnavailable
				res.Values = nil
			}
			if cb != nil {
				cb(res)
			}
		})
	case cl.prim != nil:
		// Reads go to the primary (fresh); use the Sim-level client for
		// scale-out stale reads in experiments.
		cl.prim.Get(cl.env, cl.c.nodeIDs[0], key, func(r replication.Result) {
			res := GetResult{Key: key, Err: errOf(r.Err)}
			if r.Err == "" && r.Found {
				res.Values = [][]byte{r.Value}
			}
			if cb != nil {
				cb(res)
			}
		})
	case cl.pax != nil:
		cl.pax.Get(cl.env, key, func(r consensus.Result) {
			res := GetResult{Key: key}
			if r.Err != "" {
				res.Err = ErrUnavailable
			} else if r.Found {
				res.Values = [][]byte{r.Value}
			}
			if cb != nil {
				cb(res)
			}
		})
	}
}

// Put writes key=value.
func (cl *Client) Put(key string, value []byte, cb func(PutResult)) {
	wrap := func(err error) {
		if cb != nil {
			cb(PutResult{Key: key, Err: err})
		}
	}
	switch {
	case cl.gsp != nil:
		cl.gsp.nextID++
		cl.gsp.put[cl.gsp.nextID] = cb
		cl.gsp.out.Send(cl.env, cl.gsp.nextID, cl.anyNode(), gput{ID: cl.gsp.nextID, Key: key, Val: value})
	case cl.sess != nil:
		cl.sess.Write(cl.env, cl.anyNode(), key, value, func(r session.WriteResult) {
			if r.TimedOut {
				wrap(ErrUnavailable)
			} else {
				wrap(nil)
			}
		})
	case cl.caus != nil:
		cl.caus.Put(cl.env, key, value, func(causal.PutResult) { wrap(nil) })
	case cl.q != nil:
		cl.q.Put(cl.env, cl.anyNode(), key, value, func(r quorum.PutResult) {
			if r.Err != nil {
				wrap(ErrUnavailable)
			} else {
				wrap(nil)
			}
		})
	case cl.prim != nil:
		cl.prim.Put(cl.env, key, value, func(r replication.Result) {
			if r.Err != "" {
				wrap(ErrUnavailable)
			} else {
				wrap(nil)
			}
		})
	case cl.pax != nil:
		cl.pax.Put(cl.env, key, value, func(r consensus.Result) {
			if r.Err != "" {
				wrap(ErrUnavailable)
			} else {
				wrap(nil)
			}
		})
	}
}

// Delete removes key.
func (cl *Client) Delete(key string, cb func(PutResult)) {
	wrap := func(err error) {
		if cb != nil {
			cb(PutResult{Key: key, Err: err})
		}
	}
	switch {
	case cl.gsp != nil:
		cl.gsp.nextID++
		cl.gsp.put[cl.gsp.nextID] = cb
		cl.gsp.out.Send(cl.env, cl.gsp.nextID, cl.anyNode(), gput{ID: cl.gsp.nextID, Key: key, Deleted: true})
	case cl.sess != nil:
		cl.sess.Delete(cl.env, cl.anyNode(), key, func(r session.WriteResult) {
			if r.TimedOut {
				wrap(ErrUnavailable)
			} else {
				wrap(nil)
			}
		})
	case cl.caus != nil:
		// The causal store models deletes as empty-value writes.
		cl.caus.Put(cl.env, key, nil, func(causal.PutResult) { wrap(nil) })
	case cl.q != nil:
		cl.q.Delete(cl.env, cl.anyNode(), key, func(r quorum.PutResult) {
			if r.Err != nil {
				wrap(ErrUnavailable)
			} else {
				wrap(nil)
			}
		})
	case cl.prim != nil:
		cl.prim.Delete(cl.env, key, func(r replication.Result) {
			if r.Err != "" {
				wrap(ErrUnavailable)
			} else {
				wrap(nil)
			}
		})
	case cl.pax != nil:
		cl.pax.Delete(cl.env, key, func(r consensus.Result) {
			if r.Err != "" {
				wrap(ErrUnavailable)
			} else {
				wrap(nil)
			}
		})
	}
}
