package quorum

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ring"
	"repro/internal/storage"
)

// Shard-boundary properties: the router must agree with every other
// key-partitioned structure the node keeps — the per-shard data maps,
// the Merkle bucket layout, the per-message dispatch table, and the
// request-id residue scheme — and the per-shard arc scan the transfer
// source runs must see exactly the keys a flat scan would.

func newShardedNode(t *testing.T, shards int) *Node {
	t.Helper()
	n := NewNode("s0", Config{
		Ring: []string{"s0", "s1", "s2"},
		N:    3, R: 2, W: 2,
		Shards: shards,
	})
	return n
}

func TestShardRouterAgreesWithDataAndMerkle(t *testing.T) {
	n := newShardedNode(t, 8)
	const nKeys = 2000
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		n.installEntry(0, keys[i], seedEntry(i, 8))
	}
	router := n.Router()
	if router.Shards() != n.Shards() {
		t.Fatalf("router has %d shards, node %d", router.Shards(), n.Shards())
	}
	for _, key := range keys {
		want := router.Shard(key)
		// The key must live in exactly its router shard's engine.
		owners := 0
		for i, sh := range n.shards {
			sh.mu.RLock()
			_, ok := sh.store.Get(key)
			sh.mu.RUnlock()
			if ok {
				owners++
				if i != want {
					t.Fatalf("key %q stored in shard %d, router says %d", key, i, want)
				}
			}
		}
		if owners != 1 {
			t.Fatalf("key %q stored in %d shards, want exactly 1", key, owners)
		}
		// Shard assignment is a function of the same hash the Merkle
		// trees bucket by, so a shard covers whole Merkle buckets.
		if got := router.ShardOfHash(storage.KeyHash(key)); got != want {
			t.Fatalf("ShardOfHash(%q) = %d, Shard = %d", key, got, want)
		}
	}
}

func TestShardOfRoutesKeyTrafficAndResponsesConsistently(t *testing.T) {
	n := newShardedNode(t, 8)
	s := n.Shards()
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		want := n.Router().Shard(key)
		for _, msg := range []interface{}{
			clientPut{Key: key},
			clientGet{Key: key},
			replicaPut{Key: key},
			replicaGet{Key: key},
			replicaDigest{Key: key},
		} {
			if got := n.ShardOf(msg); got != want {
				t.Fatalf("ShardOf(%T{%q}) = %d, want %d", msg, key, got, want)
			}
		}
	}
	// A response routes back to the shard whose executor minted the id.
	for idx := 0; idx < s; idx++ {
		id := n.mintReq(idx)
		if got := n.ShardOf(replicaPutAck{ID: id}); got != idx {
			t.Fatalf("ack for id %d routed to shard %d, minted on %d", id, got, idx)
		}
		for _, resp := range []interface{}{replicaGetResp{ID: id}, replicaDigestResp{ID: id}, replicaNotReady{ID: id}} {
			if got := n.ShardOf(resp); got != idx {
				t.Fatalf("%T for id %d routed to shard %d, minted on %d", resp, id, got, idx)
			}
		}
		if sh := n.reqShard(id); sh != n.shards[idx] {
			t.Fatalf("reqShard(%d) is not shard %d", id, idx)
		}
	}
	// Control traffic stays on the serial loop.
	for _, msg := range []interface{}{
		aeReq{}, aeResp{},
		shipBatch{}, shipAck{},
		transferReq{}, replicaNotOwner{}, geoStamp{},
	} {
		if got := n.ShardOf(msg); got != -1 {
			t.Fatalf("ShardOf(%T) = %d, want -1 (serial)", msg, got)
		}
	}
}

func TestMintedRequestIDsNeverCollideAcrossShards(t *testing.T) {
	n := newShardedNode(t, 4)
	seen := make(map[uint64]int)
	for round := 0; round < 100; round++ {
		for idx := 0; idx < n.Shards(); idx++ {
			id := n.mintReq(idx)
			if prev, dup := seen[id]; dup {
				t.Fatalf("id %d minted by shards %d and %d", id, prev, idx)
			}
			seen[id] = idx
		}
	}
}

func TestSingleShardMintsClassicSequence(t *testing.T) {
	n := newShardedNode(t, 1)
	for want := uint64(1); want <= 10; want++ {
		if id := n.mintReq(0); id != want {
			t.Fatalf("mintReq = %d, want %d (S=1 must match the unsharded node)", id, want)
		}
	}
}

// TestArcScanOverShardsMatchesFlatScan is the transfer-source property:
// walking each shard's engine in windows and filtering by a ring arc must
// select exactly the keys a single flat map would — the shard partition
// (keyed by storage.KeyHash) neither hides nor duplicates keys under the
// arc filter (keyed by ring.KeyHash), wherever a batch happens to end.
func TestArcScanOverShardsMatchesFlatScan(t *testing.T) {
	n := newShardedNode(t, 8)
	const nKeys = 2000
	flat := make(map[string]bool, nKeys)
	for i := 0; i < nKeys; i++ {
		key := fmt.Sprintf("key-%d", i)
		flat[key] = true
		n.installEntry(0, key, seedEntry(i, 8))
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		start, end := rng.Uint64(), rng.Uint64()
		want := make(map[string]bool)
		for key := range flat {
			if rangeContains(start, end, ring.KeyHash(key)) {
				want[key] = true
			}
		}
		got := make(map[string]bool)
		// A fresh source per batch, resumed at the cursor of the one before,
		// is what a gainer re-opening after every batch would see.
		cursor, budget := "", 1+rng.Intn(2000)
		for done := false; !done; {
			b := n.arcSource(start, end, cursor).next(budget)
			for _, e := range b.Entries {
				if got[e.Key] {
					t.Fatalf("arc (%d,%d]: key %q shipped twice", start, end, e.Key)
				}
				got[e.Key] = true
			}
			cursor, done = b.Cursor, b.Done
		}
		if len(got) != len(want) {
			t.Fatalf("arc (%d,%d]: the source shipped %d keys, a flat scan finds %d", start, end, len(got), len(want))
		}
		for key := range want {
			if !got[key] {
				t.Fatalf("arc (%d,%d]: the source missed key %q", start, end, key)
			}
		}
	}
}
