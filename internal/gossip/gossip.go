// Package gossip implements eventual delivery by anti-entropy: replicas
// periodically reconcile state with randomly chosen peers using
// Merkle-tree diffs (the Dynamo/Cassandra mechanism), optionally
// accelerated by rumor mongering (forwarding fresh writes a few hops
// immediately). Convergence of values is last-writer-wins by hybrid
// logical clock timestamp.
//
// A gossip.Node is a transport.Handler; experiments drive a cluster of
// them and measure time-to-convergence and bandwidth (experiment E4).
package gossip

import (
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"repro/internal/clock"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Write is one replicated key version.
type Write struct {
	Key     string
	Value   []byte
	TS      clock.HLCTimestamp
	Deleted bool
}

func (w Write) hash() uint64 {
	h := fnv.New64a()
	h.Write([]byte(w.TS.Node))
	var b [17]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(w.TS.Wall) >> (8 * i))
	}
	for i := 0; i < 4; i++ {
		b[8+i] = byte(w.TS.Logical >> (8 * i))
	}
	if w.Deleted {
		b[16] = 1
	}
	h.Write(b[:])
	return h.Sum64()
}

// wireSize estimates the write's serialized size for bandwidth accounting.
func (w Write) wireSize() int { return len(w.Key) + len(w.Value) + 8 + 4 + len(w.TS.Node) + 1 }

// Protocol messages.
type (
	// syncStep carries one level of the top-down Merkle descent: the
	// sender's (node index, hash) pairs for the current frontier, plus
	// the divergent leaf buckets discovered so far. The initiator opens
	// with just the root pair; each hop the receiver prunes equal nodes
	// and expands differing interior nodes to their children, so a
	// nearly converged pair of replicas exchanges O(divergence · depth)
	// hashes instead of the full leaf level.
	syncStep struct {
		Pairs   []storage.HashPair
		Buckets []int
	}
	// syncResp returns the responder's writes in the divergent buckets,
	// plus the bucket list so the initiator can push back its own.
	syncResp struct {
		Buckets []int
		Writes  []Write
	}
	// syncPush closes the round with the initiator's writes for the
	// divergent buckets.
	syncPush struct {
		Writes []Write
	}
	// rumor carries one fresh write for TTL more hops.
	rumor struct {
		W   Write
		TTL int
	}
)

// Size implements the sim bandwidth hook for each message type.
func (m syncStep) Size() int { return 12*len(m.Pairs) + 4*len(m.Buckets) }

// Size implements the sim bandwidth hook.
func (m syncResp) Size() int {
	n := 4 * len(m.Buckets)
	for _, w := range m.Writes {
		n += w.wireSize()
	}
	return n
}

// Size implements the sim bandwidth hook.
func (m syncPush) Size() int {
	n := 0
	for _, w := range m.Writes {
		n += w.wireSize()
	}
	return n
}

// Size implements the sim bandwidth hook.
func (m rumor) Size() int { return m.W.wireSize() + 4 }

// Config configures a gossip node.
type Config struct {
	// Peers lists the other replicas.
	Peers []string
	// Interval between anti-entropy rounds (default 100ms).
	Interval time.Duration
	// Fanout is how many peers each round contacts (default 1).
	Fanout int
	// MerkleDepth sets the reconciliation tree depth (default 8).
	MerkleDepth int
	// RumorTTL > 0 enables rumor mongering: fresh writes are forwarded to
	// Fanout random peers with the given hop budget.
	RumorTTL int
	// Persist, when set, journals every installed write before any
	// acknowledgement leaves the node (the durability hook the server
	// wires to its WAL). It runs on the node's actor loop.
	Persist func(rec []byte)
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.Fanout <= 0 {
		c.Fanout = 1
	}
	if c.MerkleDepth <= 0 {
		c.MerkleDepth = 8
	}
	return c
}

// Node is one anti-entropy replica. It implements transport.Handler.
type Node struct {
	cfg    Config
	id     string
	hlc    *clock.HLC
	data   map[string]Write
	merkle *storage.Merkle

	// SyncRounds counts completed anti-entropy rounds initiated here.
	SyncRounds uint64
	// Rumors counts the rumor messages sent from here.
	Rumors uint64

	// scratch is the reusable peer-index pool for fanout sampling.
	scratch []int
}

// NewNode returns a gossip replica. now must be the simulator clock (it
// feeds the HLC so LWW respects causality).
func NewNode(id string, cfg Config, now func() int64) *Node {
	cfg = cfg.withDefaults()
	return &Node{
		cfg:    cfg,
		id:     id,
		hlc:    clock.NewHLC(id, now),
		data:   make(map[string]Write),
		merkle: storage.NewMerkle(cfg.MerkleDepth),
	}
}

type tickTag struct{}

// OnStart implements transport.Handler.
func (n *Node) OnStart(env transport.Env) {
	env.SetTimer(n.jittered(env.Rand()), tickTag{})
}

func (n *Node) jittered(r *rand.Rand) time.Duration {
	// Spread rounds so replicas don't sync in lockstep.
	return n.cfg.Interval/2 + time.Duration(r.Int63n(int64(n.cfg.Interval)))
}

// OnTimer implements transport.Handler.
func (n *Node) OnTimer(env transport.Env, _ any) {
	n.startSync(env)
	env.SetTimer(n.jittered(env.Rand()), tickTag{})
}

func (n *Node) startSync(env transport.Env) {
	if len(n.cfg.Peers) == 0 {
		return
	}
	// One root-probe payload shared across the fanout: messages are
	// immutable once sent, so receivers may alias the slice.
	probe := syncStep{Pairs: []storage.HashPair{n.merkle.RootPair()}}
	for _, pi := range n.sample(env.Rand(), n.cfg.Fanout) {
		env.Send(n.cfg.Peers[pi], probe)
	}
}

// sample returns k distinct peer indices drawn uniformly, as a prefix of
// the node's scratch pool shuffled by a partial Fisher–Yates: k random
// draws and no allocation, where rand.Perm costs n-1 draws and a fresh
// slice per call. The prefix is only valid until the next call.
func (n *Node) sample(r *rand.Rand, k int) []int {
	if n.scratch == nil {
		n.scratch = make([]int, len(n.cfg.Peers))
		for i := range n.scratch {
			n.scratch[i] = i
		}
	}
	s := n.scratch
	if k > len(s) {
		k = len(s)
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(len(s)-i)
		s[i], s[j] = s[j], s[i]
	}
	return s[:k]
}

// OnMessage implements transport.Handler.
func (n *Node) OnMessage(env transport.Env, from string, msg transport.Message) {
	switch m := msg.(type) {
	case syncStep:
		next, found := n.merkle.Descend(m.Pairs)
		buckets := make([]int, 0, len(m.Buckets)+len(found))
		buckets = append(buckets, m.Buckets...)
		buckets = append(buckets, found...)
		if len(next) > 0 {
			env.Send(from, syncStep{Pairs: next, Buckets: buckets})
			return
		}
		// Descent complete: this side holds the full divergent-bucket
		// list and opens the push-pull data exchange.
		if len(buckets) == 0 {
			return
		}
		sort.Ints(buckets)
		ws, nb := n.writesInBuckets(buckets)
		env.Send(from, syncResp{Buckets: buckets[:nb], Writes: ws})
	case syncResp:
		for _, w := range m.Writes {
			n.apply(env, from, w, 0)
		}
		ws, _ := n.writesInBuckets(m.Buckets)
		env.Send(from, syncPush{Writes: ws})
		n.SyncRounds++
	case syncPush:
		for _, w := range m.Writes {
			n.apply(env, from, w, 0)
		}
	case rumor:
		n.apply(env, from, m.W, m.TTL)
	}
}

// maxSyncBytes bounds the writes one syncResp or syncPush carries, well
// under transport.MaxFrameSize: a replica far behind its peers catches up
// over several rounds instead of in one frame the transport refuses.
const maxSyncBytes = transport.MaxFrameSize / 4

// writesInBuckets fetches this replica's writes for a prefix of the given
// divergent buckets through the Merkle key index: O(divergent keys), not
// a scan and sort of the whole key space. The prefix holds at least one
// bucket and as many more as fit in maxSyncBytes; it returns the writes
// and the prefix length. Buckets left out stay divergent, so a later
// round ships them.
func (n *Node) writesInBuckets(buckets []int) ([]Write, int) {
	var keys []string
	size, nb := 0, 0
	for ; nb < len(buckets); nb++ {
		mark := len(keys)
		keys = n.merkle.AppendBucketKeys(keys, buckets[nb])
		for _, k := range keys[mark:] {
			if w, ok := n.data[k]; ok {
				size += w.wireSize()
			}
		}
		if nb > 0 && size > maxSyncBytes {
			keys = keys[:mark]
			break
		}
	}
	out := make([]Write, 0, len(keys))
	for _, k := range keys {
		if w, ok := n.data[k]; ok {
			out = append(out, w)
		}
	}
	return out, nb
}

// apply installs a write if it is newer (LWW), updating the Merkle tree
// and, when fresh and rumor mongering is on, forwarding it to peers
// other than the one it arrived from.
func (n *Node) apply(env transport.Env, from string, w Write, ttl int) {
	if !n.install(w) {
		return // stale or duplicate
	}
	n.persist(w)
	if ttl > 0 {
		n.spreadRumor(env, w, ttl-1, from)
	}
}

// install is the one place replicated state changes: LWW-check w, and if
// it wins, update the write map, HLC, and Merkle tree. Shared by the
// live message path and WAL replay (which must not re-journal).
func (n *Node) install(w Write) bool {
	cur, ok := n.data[w.Key]
	if ok && !cur.TS.Before(w.TS) {
		return false
	}
	n.hlc.Observe(w.TS)
	n.data[w.Key] = w
	n.merkle.Update(w.Key, w.hash())
	return true
}

// spreadRumor forwards w to up to Fanout random peers, never back to
// except (the peer the rumor arrived from; "" for locally originated writes).
func (n *Node) spreadRumor(env transport.Env, w Write, ttl int, except string) {
	k := n.cfg.Fanout
	want := k
	if except != "" && want < len(n.cfg.Peers) {
		want++ // one spare in case the sample includes the rumor's source
	}
	var msg transport.Message // boxed once, at the first send, for every peer
	for _, pi := range n.sample(env.Rand(), want) {
		if k == 0 {
			break
		}
		if p := n.cfg.Peers[pi]; p != except {
			if msg == nil {
				msg = rumor{W: w, TTL: ttl}
			}
			env.Send(p, msg)
			n.Rumors++
			k--
		}
	}
}

// Put performs a client write at this replica. Call it from a cluster
// callback so it runs at simulation time.
func (n *Node) Put(env transport.Env, key string, value []byte) {
	w := Write{Key: key, Value: value, TS: n.hlc.Now()}
	n.data[key] = w
	n.merkle.Update(key, w.hash())
	n.persist(w)
	if n.cfg.RumorTTL > 0 {
		n.spreadRumor(env, w, n.cfg.RumorTTL, "")
	}
}

// Delete performs a client delete (a tombstone write) at this replica.
func (n *Node) Delete(env transport.Env, key string) {
	w := Write{Key: key, TS: n.hlc.Now(), Deleted: true}
	n.data[key] = w
	n.merkle.Update(key, w.hash())
	n.persist(w)
	if n.cfg.RumorTTL > 0 {
		n.spreadRumor(env, w, n.cfg.RumorTTL, "")
	}
}

// Get reads the replica's local value for key.
func (n *Node) Get(key string) ([]byte, bool) {
	w, ok := n.data[key]
	if !ok || w.Deleted {
		return nil, false
	}
	return w.Value, true
}

// RootHash exposes the Merkle root for convergence checks.
func (n *Node) RootHash() uint64 { return n.merkle.RootHash() }

// Keys returns the number of keys (including tombstones) held.
func (n *Node) Keys() int { return len(n.data) }

// SetPeers replaces the peer set — live membership change. The scratch
// sampling pool is rebuilt lazily at the next fanout. Gossip replicates
// every key everywhere, so a joiner needs no range transfer: its first
// completed sync rounds pull the full state, and the caller can treat
// SyncRounds advancing as catch-up.
func (n *Node) SetPeers(peers []string) {
	n.cfg.Peers = append([]string(nil), peers...)
	n.scratch = nil
}

// Converged reports whether all nodes hold identical replicated state.
func Converged(nodes []*Node) bool {
	for _, n := range nodes[1:] {
		if n.RootHash() != nodes[0].RootHash() {
			return false
		}
	}
	return true
}
