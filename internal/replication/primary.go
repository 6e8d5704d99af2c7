// Package replication implements classic primary-copy replication in two
// commit modes — the database-style baselines the tutorial positions
// eventual consistency against (experiment E9):
//
//   - Sync: the primary acknowledges a write only after a configurable
//     number of backups have durably applied it (no data loss on
//     failover, commit pays a replication round trip).
//   - Async: the primary acknowledges immediately and ships its log in
//     the background (fast commits; a failover can lose the unshipped
//     suffix — the package measures exactly how much).
//
// Failover promotes a backup to primary; with async mode the promoted
// backup's log defines the surviving history.
package replication

import (
	"time"

	"repro/internal/sim"
	"repro/internal/storage"
)

// Mode selects the commit discipline.
type Mode int

// The commit modes.
const (
	// Sync acknowledges after SyncAcks backups confirm.
	Sync Mode = iota
	// Async acknowledges immediately and ships the log lazily.
	Async
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Sync {
		return "sync"
	}
	return "async"
}

// Op is one logged operation.
type Op struct {
	Key     string
	Value   []byte
	Deleted bool
}

// Config configures every node of a primary-copy group.
type Config struct {
	// Primary is the initial primary's node id.
	Primary string
	// Backups lists the backup node ids.
	Backups []string
	// Mode selects sync or async commit.
	Mode Mode
	// SyncAcks is how many backup acks a sync commit needs (default: all
	// backups).
	SyncAcks int
	// ShipInterval is the async log-shipping period (default 50ms).
	ShipInterval time.Duration
	// CommitTimeout bounds a sync commit before failing to the client
	// (default 1s).
	CommitTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.SyncAcks <= 0 || c.SyncAcks > len(c.Backups) {
		c.SyncAcks = len(c.Backups)
	}
	if c.ShipInterval <= 0 {
		c.ShipInterval = 50 * time.Millisecond
	}
	if c.CommitTimeout <= 0 {
		c.CommitTimeout = time.Second
	}
	return c
}

// Result is delivered to the client when an operation completes.
type Result struct {
	ID    uint64
	Op    string
	Key   string
	Value []byte
	Found bool
	Err   string
}

// Protocol messages.
type (
	pput struct {
		ID      uint64
		Key     string
		Value   []byte
		Deleted bool
	}
	pget struct {
		ID  uint64
		Key string
	}
	// appendEntries ships log entries (both modes use it; sync mode
	// ships each entry eagerly).
	appendEntries struct {
		From    uint64 // index of the first entry
		Entries []Op
	}
	appendAck struct {
		UpTo uint64
	}
	promoteMsg struct{}
)

// Size implements the sim bandwidth hook.
func (m appendEntries) Size() int {
	n := 8
	for _, e := range m.Entries {
		n += len(e.Key) + len(e.Value) + 1
	}
	return n
}

type pendingCommit struct {
	client string
	id     uint64
	index  uint64
	acks   int
	since  time.Duration
}

// Node is one member of a primary-copy group. It implements sim.Handler.
type Node struct {
	cfg       Config
	id        string
	isPrimary bool

	log     *storage.Log
	applied uint64 // entries applied to kv
	kv      map[string][]byte

	// Primary state.
	shipped map[string]uint64 // backup -> highest acked index
	pending []*pendingCommit
}

type shipTick struct{}
type commitSweep struct{}

// NewNode returns a group member.
func NewNode(id string, cfg Config) *Node {
	cfg = cfg.withDefaults()
	n := &Node{
		cfg:     cfg,
		id:      id,
		log:     storage.NewLog(),
		kv:      make(map[string][]byte),
		shipped: make(map[string]uint64),
	}
	n.isPrimary = id == cfg.Primary
	return n
}

// OnStart implements sim.Handler.
func (n *Node) OnStart(env sim.Env) {
	if n.isPrimary {
		env.SetTimer(n.cfg.ShipInterval, shipTick{})
		env.SetTimer(n.cfg.CommitTimeout/2, commitSweep{})
	}
}

// OnTimer implements sim.Handler.
func (n *Node) OnTimer(env sim.Env, tag any) {
	if !n.isPrimary {
		return
	}
	switch tag.(type) {
	case shipTick:
		n.ship(env)
		env.SetTimer(n.cfg.ShipInterval, shipTick{})
	case commitSweep:
		n.sweep(env)
		env.SetTimer(n.cfg.CommitTimeout/2, commitSweep{})
	}
}

// ship sends each backup the log suffix it has not acknowledged.
func (n *Node) ship(env sim.Env) {
	for _, b := range n.cfg.Backups {
		if b == n.id {
			continue
		}
		from := n.shipped[b] + 1
		entries := n.log.Suffix(from, 256)
		if len(entries) == 0 {
			continue
		}
		ops := make([]Op, len(entries))
		for i, e := range entries {
			ops[i] = e.Data.(Op)
		}
		env.Send(b, appendEntries{From: from, Entries: ops})
	}
}

// OnMessage implements sim.Handler.
func (n *Node) OnMessage(env sim.Env, from string, msg sim.Message) {
	switch m := msg.(type) {
	case pput:
		n.handlePut(env, from, m)
	case pget:
		v, ok := n.kv[m.Key]
		env.Send(from, Result{ID: m.ID, Op: "get", Key: m.Key, Value: v, Found: ok})
	case appendEntries:
		n.handleAppend(env, from, m)
	case appendAck:
		n.handleAck(env, from, m)
	case promoteMsg:
		n.promote(env)
	}
}

func (n *Node) handlePut(env sim.Env, client string, m pput) {
	if !n.isPrimary {
		env.Send(client, Result{ID: m.ID, Op: "put", Key: m.Key, Err: "not primary"})
		return
	}
	op := Op{Key: m.Key, Value: m.Value, Deleted: m.Deleted}
	idx := n.log.Append(op)
	n.applyTo(idx)

	if n.cfg.Mode == Async || len(n.cfg.Backups) == 0 || n.cfg.SyncAcks == 0 {
		env.Send(client, Result{ID: m.ID, Op: "put", Key: m.Key})
		return
	}
	// Sync: ship eagerly and hold the ack until SyncAcks backups confirm.
	n.pending = append(n.pending, &pendingCommit{client: client, id: m.ID, index: idx, since: env.Now()})
	n.ship(env)
}

// applyTo applies log entries up to index to the KV state.
func (n *Node) applyTo(index uint64) {
	for n.applied < index {
		n.applied++
		e, ok := n.log.Get(n.applied)
		if !ok {
			continue
		}
		op := e.Data.(Op)
		if op.Deleted {
			delete(n.kv, op.Key)
		} else {
			n.kv[op.Key] = op.Value
		}
	}
}

func (n *Node) handleAppend(env sim.Env, from string, m appendEntries) {
	if n.isPrimary {
		return // a stale primary shipping to us; ignore
	}
	last := n.log.LastIndex()
	for i, op := range m.Entries {
		idx := m.From + uint64(i)
		if idx != last+1 {
			if idx <= last {
				continue // duplicate
			}
			break // gap; wait for retransmit of the missing prefix
		}
		n.log.Append(op)
		last = idx
	}
	n.applyTo(n.log.LastIndex())
	env.Send(from, appendAck{UpTo: n.log.LastIndex()})
}

func (n *Node) handleAck(env sim.Env, from string, m appendAck) {
	if !n.isPrimary {
		return
	}
	if m.UpTo > n.shipped[from] {
		n.shipped[from] = m.UpTo
	}
	// Complete any sync commits this ack satisfies.
	var still []*pendingCommit
	for _, p := range n.pending {
		acks := 0
		for _, b := range n.cfg.Backups {
			if n.shipped[b] >= p.index {
				acks++
			}
		}
		if acks >= n.cfg.SyncAcks {
			env.Send(p.client, Result{ID: p.id, Op: "put"})
		} else {
			still = append(still, p)
		}
	}
	n.pending = still
}

func (n *Node) sweep(env sim.Env) {
	var still []*pendingCommit
	for _, p := range n.pending {
		if env.Now()-p.since >= n.cfg.CommitTimeout {
			env.Send(p.client, Result{ID: p.id, Op: "put", Err: "commit timeout"})
		} else {
			still = append(still, p)
		}
	}
	n.pending = still
}

// promote turns this backup into the primary. History it never received
// is counted lost (the old primary, if it returns, must be re-seeded —
// not modeled).
func (n *Node) promote(env sim.Env) {
	if n.isPrimary {
		return
	}
	n.isPrimary = true
	n.cfg.Primary = n.id
	// Remove self from the backup set.
	var backups []string
	for _, b := range n.cfg.Backups {
		if b != n.id {
			backups = append(backups, b)
		}
	}
	n.cfg.Backups = backups
	if n.cfg.SyncAcks > len(backups) {
		n.cfg.SyncAcks = len(backups)
	}
	env.SetTimer(n.cfg.ShipInterval, shipTick{})
	env.SetTimer(n.cfg.CommitTimeout/2, commitSweep{})
}

// Promote is the administrative failover entry point: deliver a promote
// command to the node via the cluster (so it runs at simulation time).
func Promote(c interface {
	Send(from, to string, msg sim.Message)
}, to string) {
	c.Send("admin", to, promoteMsg{})
}

// IsPrimary reports whether this node currently acts as primary.
func (n *Node) IsPrimary() bool { return n.isPrimary }

// LastIndex returns the node's newest log index.
func (n *Node) LastIndex() uint64 { return n.log.LastIndex() }

// Value exposes the node's applied state for key.
func (n *Node) Value(key string) ([]byte, bool) {
	v, ok := n.kv[key]
	return v, ok
}

// Client issues operations against a primary-copy group. Register it as a
// simulator node.
type Client struct {
	id      string
	primary string

	nextID uint64
	cbs    map[uint64]func(Result)
}

// NewClient returns a client that sends to the given primary.
func NewClient(id, primary string) *Client {
	return &Client{id: id, primary: primary, cbs: make(map[uint64]func(Result))}
}

// Retarget points the client at a new primary after failover.
func (c *Client) Retarget(primary string) { c.primary = primary }

// OnStart implements sim.Handler.
func (c *Client) OnStart(sim.Env) {}

// OnTimer implements sim.Handler.
func (c *Client) OnTimer(sim.Env, any) {}

// OnMessage implements sim.Handler.
func (c *Client) OnMessage(_ sim.Env, _ string, msg sim.Message) {
	res, ok := msg.(Result)
	if !ok {
		return
	}
	cb := c.cbs[res.ID]
	delete(c.cbs, res.ID)
	if cb != nil {
		cb(res)
	}
}

// Put writes key=value at the primary.
func (c *Client) Put(env sim.Env, key string, value []byte, cb func(Result)) {
	c.nextID++
	c.cbs[c.nextID] = cb
	env.Send(c.primary, pput{ID: c.nextID, Key: key, Value: value})
}

// Delete removes key at the primary.
func (c *Client) Delete(env sim.Env, key string, cb func(Result)) {
	c.nextID++
	c.cbs[c.nextID] = cb
	env.Send(c.primary, pput{ID: c.nextID, Key: key, Deleted: true})
}

// Get reads key at the given server: the primary for fresh reads, or a
// backup for scale-out reads that may be stale.
func (c *Client) Get(env sim.Env, server, key string, cb func(Result)) {
	c.nextID++
	c.cbs[c.nextID] = cb
	env.Send(server, pget{ID: c.nextID, Key: key})
}
