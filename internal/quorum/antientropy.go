package quorum

import (
	"encoding/binary"
	"hash/fnv"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Active anti-entropy for the quorum store: each node maintains, per
// peer, a Merkle tree over exactly the keys both nodes replicate (the
// intersection of preference lists). Periodically a node exchanges leaf
// hashes with one random peer and push-pulls the sibling sets of
// divergent buckets. This is Dynamo's background repair path: unlike
// read repair it converges keys that are never read.

type (
	// aeReq opens a round with the sender's leaf hashes of the tree it
	// keeps for the receiver.
	aeReq struct {
		Leaves []uint64
	}
	// aeResp returns the responder's entries in the divergent buckets
	// plus the bucket list for the push half.
	aeResp struct {
		Buckets []int
		Entries []aeEntry
	}
	// aePush closes the round with the initiator's entries.
	aePush struct {
		Entries []aeEntry
	}
)

type aeEntry struct {
	Key     string
	Entries []clock.SiblingEntry[record]
}

// Size implements the sim bandwidth hook.
func (m aeReq) Size() int { return 8 * len(m.Leaves) }

// Size implements the sim bandwidth hook.
func (m aeResp) Size() int {
	n := 4 * len(m.Buckets)
	for _, e := range m.Entries {
		n += len(e.Key)
		for _, s := range e.Entries {
			n += len(s.Value.Value) + 16*len(s.DVV.Context) + 16
		}
	}
	return n
}

// Size implements the sim bandwidth hook.
func (m aePush) Size() int { return aeResp{Entries: m.Entries}.Size() }

type aeTick struct{}

// tree returns (creating lazily) the Merkle tree tracking keys shared
// with peer. aeMu guards only the map — each tree synchronizes itself —
// because noteKeyChanged runs on shard goroutines while the AE exchange
// runs on the serial loop.
func (n *Node) tree(peer string) *storage.Merkle {
	n.aeMu.Lock()
	defer n.aeMu.Unlock()
	if n.aeTrees == nil {
		n.aeTrees = make(map[string]*storage.Merkle)
	}
	t, ok := n.aeTrees[peer]
	if !ok {
		t = storage.NewMerkle(n.cfg.MerkleDepth)
		n.aeTrees[peer] = t
	}
	return t
}

// entriesDigest digests a key's full sibling set, so two replicas agree
// on the hash iff they hold identical versions. It is FNV-1a over the
// decoded fields in stored order — dot node, dot counter, tombstone
// flag, value — and never over the stored bytes: contexts are maps and
// encode in iteration order, so equal sets differ bytewise across
// replicas, and a digest of the bytes would have anti-entropy exchange
// every bucket forever.
func entriesDigest(es []clock.SiblingEntry[record]) uint64 {
	h := fnv.New64a()
	for _, e := range es {
		h.Write([]byte(e.DVV.Dot.Node))
		var b [9]byte
		binary.LittleEndian.PutUint64(b[:8], e.DVV.Dot.Counter)
		if e.Value.Deleted {
			b[8] = 1
		}
		h.Write(b[:])
		h.Write(e.Value.Value)
	}
	return h.Sum64()
}

// noteKeyChanged refreshes key's digest, computed from es, the sibling set
// the store now holds, in the tree of every peer that shares the key
// (peers is the key's preference list). applyEntry calls it under the
// shard lock on every install, changed or not: an unchanged digest costs
// a map lookup per peer, and a key the tree lacked is added.
func (n *Node) noteKeyChanged(key string, es []clock.SiblingEntry[record], peers []string) {
	if !n.cfg.AntiEntropy {
		return
	}
	digest := entriesDigest(es)
	for _, rep := range peers {
		if rep != n.id {
			n.tree(rep).Update(key, digest)
		}
	}
}

// startAntiEntropy exchanges with one random peer.
func (n *Node) startAntiEntropy(env transport.Env) {
	ring := n.ring()
	if len(ring) < 2 {
		return
	}
	var peer string
	for {
		peer = ring[env.Rand().Intn(len(ring))]
		if peer != n.id {
			break
		}
	}
	t := n.tree(peer)
	env.Send(peer, aeReq{Leaves: t.LevelHashes(t.Depth())})
}

func (n *Node) handleAEReq(env transport.Env, from string, m aeReq) {
	t := n.tree(from)
	local := t.LevelHashes(t.Depth())
	var buckets []int
	for i := range local {
		if i < len(m.Leaves) && local[i] != m.Leaves[i] {
			buckets = append(buckets, i)
		}
	}
	if len(buckets) == 0 {
		return
	}
	env.Send(from, aeResp{Buckets: buckets, Entries: n.entriesInBuckets(from, buckets)})
}

// entriesInBuckets collects this node's sibling sets for keys shared
// with peer that fall in the given buckets. The per-peer tree indexes
// exactly the keys both nodes replicate, so the lookup walks only the
// divergent buckets' key sets — O(divergent keys), not a scan and sort
// of every key this node holds.
func (n *Node) entriesInBuckets(peer string, buckets []int) []aeEntry {
	t := n.tree(peer)
	var keys []string
	for _, b := range buckets {
		keys = t.AppendBucketKeys(keys, b)
	}
	out := make([]aeEntry, 0, len(keys))
	for _, key := range keys {
		if !contains(n.PreferenceList(key), peer) {
			continue // peer is not a replica of this key
		}
		out = append(out, aeEntry{Key: key, Entries: n.localEntries(key)})
	}
	return out
}

func (n *Node) handleAEResp(env transport.Env, from string, m aeResp) {
	n.applyAEEntries(execDomain(env), m.Entries)
	env.Send(from, aePush{Entries: n.entriesInBuckets(from, m.Buckets)})
	atomic.AddUint64(&n.AESyncs, 1)
}

func (n *Node) applyAEEntries(domain int, entries []aeEntry) {
	for _, e := range entries {
		if !contains(n.PreferenceList(e.Key), n.id) {
			continue // not a replica of this key; ignore
		}
		for _, s := range e.Entries {
			n.installEntry(domain, e.Key, s)
		}
	}
}
