package quorum

import (
	"encoding/binary"
	"hash/fnv"
	"slices"
	"sort"

	"repro/internal/clock"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Active anti-entropy for the quorum store: each node maintains, per
// peer, a Merkle tree over exactly the keys both nodes replicate (the
// intersection of preference lists). Periodically a node opens a top-down
// descent of that tree with one random peer (the exchange gossip uses:
// storage.Merkle.RootPair and Descend), and each side then streams the
// other its sibling sets of the buckets found divergent (see stream.go).
// This is Dynamo's background repair path: unlike read repair it
// converges keys that are never read.

type (
	// aeReq carries one level of the descent: the sender's (index, hash)
	// pairs for the receiver to compare, and the divergent leaf buckets
	// found so far. A round opens with the root pair alone.
	aeReq struct {
		Pairs   []storage.HashPair
		Buckets []int
	}
	// aeResp closes the descent with the divergent buckets: its sender has
	// begun streaming its keys of those buckets, and the receiver does the
	// same.
	aeResp struct {
		Buckets []int
	}
)

// Size implements the sim bandwidth hook.
func (m aeReq) Size() int { return 12*len(m.Pairs) + 4*len(m.Buckets) }

// Size implements the sim bandwidth hook.
func (m aeResp) Size() int { return 4 * len(m.Buckets) }

type aeTick struct{}

// merkleDepth is the reconciliation trees' depth: 256 leaf buckets.
const merkleDepth = 8

// tree returns (creating lazily) the Merkle tree tracking keys shared
// with peer. aeMu guards only the map — each tree synchronizes itself —
// because noteKeyChanged runs on shard goroutines while the AE exchange
// runs on the serial loop.
func (n *Node) tree(peer string) *storage.Merkle {
	n.aeMu.Lock()
	defer n.aeMu.Unlock()
	t, ok := n.aeTrees[peer]
	if !ok {
		t = storage.NewMerkle(merkleDepth)
		n.aeTrees[peer] = t
	}
	return t
}

// entriesDigest digests a key's full sibling set, so two replicas agree
// on the hash iff they hold identical versions. It is FNV-1a over the
// decoded fields in stored order — dot node, dot counter, tombstone
// flag, value — and never over the stored bytes or the contexts. A dot
// names one write and its context, so the dots decide equality; and a
// set stored by an earlier version, which wrote contexts in map order,
// differs bytewise from an equal set stored now, so a digest of the
// bytes would have anti-entropy exchange those buckets forever.
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
// the store now holds, in the tree of every peer in the key's preference
// list (a walk the epoch's ring shares: nothing is allocated). applyEntry
// calls it under the shard lock on every install, changed or not: an
// unchanged digest costs a map lookup per peer, and a key the tree lacked
// is added.
func (n *Node) noteKeyChanged(key string, es []clock.SiblingEntry[record]) {
	if !n.cfg.AntiEntropy {
		return
	}
	digest := entriesDigest(es)
	for _, rep := range n.PreferenceList(key) {
		if rep != n.id {
			n.tree(rep).Update(key, digest)
		}
	}
}

// startAntiEntropy opens a round with one random peer, unless the keys of
// the last round with it are still on their way.
func (n *Node) startAntiEntropy(env transport.Env) {
	members := n.members()
	if len(members) < 2 {
		return
	}
	var peer string
	for {
		peer = members[env.Rand().Intn(len(members))]
		if peer != n.id {
			break
		}
	}
	if n.streamTo(peer, streamAE, 0) == nil {
		env.Send(peer, aeReq{Pairs: []storage.HashPair{n.tree(peer).RootPair()}})
	}
}

// handleAEReq takes the descent one level down. The side it ends on holds
// the whole list of divergent buckets, names them to the other and starts
// streaming.
func (n *Node) handleAEReq(env transport.Env, from string, m aeReq) {
	next, found := n.tree(from).Descend(m.Pairs)
	buckets := append(slices.Clip(m.Buckets), found...)
	if len(next) > 0 {
		env.Send(from, aeReq{Pairs: next, Buckets: buckets})
		return
	}
	if len(buckets) == 0 {
		return
	}
	sort.Ints(buckets)
	env.Send(from, aeResp{Buckets: buckets})
	n.shipBuckets(env, from, buckets)
}

// shipBuckets streams peer this node's sibling sets of the keys the two
// share in the given buckets. The tree kept for peer indexes exactly those
// keys, so they are found through the divergent buckets' key lists and not
// by a scan of what this node holds. A stream still open from an earlier
// round is left to finish: it is shipping the same divergence.
func (n *Node) shipBuckets(env transport.Env, peer string, buckets []int) {
	if n.streamTo(peer, streamAE, 0) != nil {
		return
	}
	t := n.tree(peer)
	var keys []string
	for _, b := range buckets {
		if b >= 0 && b < t.Leaves() { // the list is a peer's: not a bucket, not a panic
			keys = t.AppendBucketKeys(keys, b)
		}
	}
	// A key whose preference list peer has since left stays home.
	keys = slices.DeleteFunc(keys, func(key string) bool { return !slices.Contains(n.PreferenceList(key), peer) })
	n.openStream(env, peer, streamID{streamAE, n.mintStream()}, 0, source{next: shipKeys(keys, n.localEntries)})
}
