package ring

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func members(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("node%d", i)
	}
	return out
}

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("key-%d", i)
	}
	return out
}

// Placement must be a pure function of the member SET: any process that
// knows the same members — in any order — computes identical replicas.
// Cross-process agreement is the whole design (no placement metadata is
// replicated), so this is the contract test.
func TestPlacementDeterministicAcrossConstruction(t *testing.T) {
	ms := members(7)
	a := New(ms, 64)
	shuffled := append([]string(nil), ms...)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		b := New(shuffled, 64)
		for _, k := range keys(200) {
			if got, want := b.Sequence(k), a.Sequence(k); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: Sequence(%q) = %v, want %v", trial, k, got, want)
			}
		}
	}
}

// Golden placements: the vnode hash preimage ("m#i", fnv64a) is part of
// the wire contract — two binaries disagreeing on it would silently
// split the keyspace. A change that breaks this test breaks rolling
// upgrades and must be versioned, not shipped.
func TestPlacementGolden(t *testing.T) {
	r := New([]string{"node0", "node1", "node2", "node3", "node4"}, 128)
	golden := map[string][]string{
		"alpha":     {"node4", "node2", "node3"},
		"beta":      {"node1", "node4", "node0"},
		"gamma":     {"node4", "node1", "node0"},
		"delta":     {"node4", "node1", "node2"},
		"cart:7f3a": {"node0", "node3", "node2"},
	}
	for k, want := range golden {
		if got := r.Replicas(k, 3); !reflect.DeepEqual(got, want) {
			t.Errorf("Replicas(%q, 3) = %v, want %v", k, got, want)
		}
	}
}

func TestReplicasDistinctAndComplete(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 9} {
		r := New(members(n), 32)
		for _, k := range keys(300) {
			for _, want := range []int{1, 2, 3, n, n + 2} {
				got := r.Replicas(k, want)
				exp := want
				if exp > n {
					exp = n
				}
				if len(got) != exp {
					t.Fatalf("n=%d: Replicas(%q, %d) returned %d members", n, k, want, len(got))
				}
				seen := map[string]bool{}
				for _, m := range got {
					if seen[m] {
						t.Fatalf("n=%d: duplicate member %q in replica set %v for %q", n, m, got, k)
					}
					seen[m] = true
				}
			}
			// The full sequence enumerates every member exactly once.
			seq := r.Sequence(k)
			if len(seq) != n {
				t.Fatalf("n=%d: Sequence(%q) has %d members", n, k, len(seq))
			}
		}
	}
}

// A join moves ~K/n of the keys and never reshuffles keys between two
// nodes that were both already present — the consistent-hashing
// property that makes elasticity affordable.
func TestJoinMovesAboutKOverN(t *testing.T) {
	const K = 20000
	before := New(members(9), DefaultVirtualNodes)
	after := before.Join("node9")

	moved := 0
	for _, k := range keys(K) {
		ob, oa := before.Owner(k), after.Owner(k)
		if ob == oa {
			continue
		}
		moved++
		if oa != "node9" {
			t.Fatalf("key %q moved %s -> %s; only the joiner may gain keys", k, ob, oa)
		}
	}
	want := float64(K) / 10 // the new node's fair share
	if f := float64(moved); f < 0.5*want || f > 1.5*want {
		t.Fatalf("join moved %d of %d keys; want about %.0f (K/n)", moved, K, want)
	}
}

func TestLeaveMovesOnlyDepartedKeys(t *testing.T) {
	const K = 20000
	before := New(members(10), DefaultVirtualNodes)
	after := before.Leave("node3")

	moved := 0
	for _, k := range keys(K) {
		ob, oa := before.Owner(k), after.Owner(k)
		if ob == oa {
			continue
		}
		moved++
		if ob != "node3" {
			t.Fatalf("key %q moved %s -> %s; only the leaver's keys may move", k, ob, oa)
		}
	}
	want := float64(K) / 10
	if f := float64(moved); f < 0.5*want || f > 1.5*want {
		t.Fatalf("leave moved %d of %d keys; want about %.0f (K/n)", moved, K, want)
	}
}

func TestLoadBalance(t *testing.T) {
	r := New(members(8), DefaultVirtualNodes)
	load := r.Load()
	var sum float64
	for m, f := range load {
		sum += f
		if f < 0.04 || f > 0.25 { // fair share 0.125; vnodes keep it in band
			t.Errorf("member %s owns %.3f of the circle; badly unbalanced", m, f)
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("circle ownership sums to %.4f, want 1", sum)
	}
}

func TestJoinLeaveRoundTrip(t *testing.T) {
	r := New(members(5), 32)
	same := r.Join("node7").Leave("node7")
	for _, k := range keys(500) {
		if got, want := same.Sequence(k), r.Sequence(k); !reflect.DeepEqual(got, want) {
			t.Fatalf("join+leave changed Sequence(%q): %v != %v", k, got, want)
		}
	}
	if d := DiffN(r, same, r.Size()); len(d) != 0 {
		t.Fatalf("join+leave left a non-empty diff: %v", d)
	}
}

// referenceWalk collects the n distinct members clockwise from hash one
// point at a time, spreading a zoned walk before cutting it: the walk
// Sequence answered by walking the circle on every lookup, before the
// walks were computed once per ring.
func referenceWalk(r *Ring, hash uint64, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	limit := min(n, len(r.members))
	if len(r.zones) != 0 {
		limit = len(r.members)
	}
	var out []string
	seen := map[string]bool{}
	start := r.successorIdx(hash)
	for i := 0; i < len(r.points) && len(out) < limit; i++ {
		if p := r.points[(start+i)%len(r.points)]; !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	if len(r.zones) != 0 {
		out = zoneSpread(out, r.zones)
	}
	return out[:min(n, len(out))]
}

// The walks a ring computes once agree with walking the circle, on zoned
// and unzoned rings and on every ring Join and Leave derive, for every
// prefix length: at each point's own hash (where a walk starts) and at
// random keys between.
func TestWalksMatchWalkingTheCircle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rings := []*Ring{
		New(nil, 8),
		New([]string{"solo"}, 8),
		New(members(5), 32),
		New(members(5), 32).Join("node9").Leave("node2"),
		NewZoned(members(9), 16, threeZones(9)),
		NewZoned(members(9), 16, threeZones(9)).JoinZone("node9", "eu").Leave("node0"),
		NewZoned(members(4), 64, map[string]string{"node0": "a", "node1": "a", "node2": "b"}),
	}
	for ri, r := range rings {
		hashes := make([]uint64, 0, len(r.points)+200)
		for _, p := range r.points {
			hashes = append(hashes, p.hash, p.hash+1)
		}
		for i := 0; i < 200; i++ {
			hashes = append(hashes, rng.Uint64())
		}
		for _, h := range hashes {
			for n := 0; n <= r.Size()+1; n++ {
				if got, want := r.walk(h, n), referenceWalk(r, h, n); !slices.Equal(got, want) {
					t.Fatalf("ring %d (%v): walk(%x, %d) = %v, want %v", ri, r, h, n, got, want)
				}
			}
		}
	}
}

// A lookup hands out the ring's shared walk: it allocates nothing, and an
// append to the result copies instead of writing into the next walk.
func TestSequenceAllocatesNothing(t *testing.T) {
	r := NewZoned(members(3), DefaultVirtualNodes, threeZones(3))
	if allocs := testing.AllocsPerRun(100, func() { r.Sequence("cart:7f3a") }); allocs != 0 {
		t.Fatalf("Sequence allocates %v objects per lookup, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Replicas("cart:7f3a", 2) }); allocs != 0 {
		t.Fatalf("Replicas allocates %v objects per lookup, want 0", allocs)
	}
	reps := r.Replicas("cart:7f3a", 2)
	want := slices.Clone(r.Sequence("cart:7f3a"))
	_ = append(reps, "intruder")
	if got := r.Sequence("cart:7f3a"); !slices.Equal(got, want) {
		t.Fatalf("an append to Replicas wrote into the ring's walk: %v, want %v", got, want)
	}
}

// TestRotationIsASharedSlice: a rotation of the members starts at the
// i-th (mod the member count), wraps round, allocates nothing and is
// capped, so an append to it copies.
func TestRotationIsASharedSlice(t *testing.T) {
	r := New([]string{"c", "a", "b"}, 4)
	for i, want := range [][]string{{"a", "b", "c"}, {"b", "c", "a"}, {"c", "a", "b"}, {"a", "b", "c"}} {
		if got := r.Rotation(i); !slices.Equal(got, want) || cap(got) != len(got) {
			t.Fatalf("Rotation(%d) = %v (cap %d), want %v", i, got, cap(got), want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Rotation(2) }); allocs != 0 {
		t.Fatalf("Rotation allocates %v objects, want 0", allocs)
	}
	_ = append(r.Rotation(1), "intruder")
	if got := r.Rotation(1); !slices.Equal(got, []string{"b", "c", "a"}) {
		t.Fatalf("an append to a rotation wrote into the ring: %v", got)
	}
	if got := New(nil, 4).Rotation(3); got != nil {
		t.Fatalf("Rotation of an empty ring = %v", got)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	empty := New(nil, 8)
	if o := empty.Owner("k"); o != "" {
		t.Fatalf("empty ring owner = %q", o)
	}
	if s := empty.Sequence("k"); s != nil {
		t.Fatalf("empty ring sequence = %v", s)
	}
	one := New([]string{"solo"}, 8)
	if o := one.Owner("k"); o != "solo" {
		t.Fatalf("singleton owner = %q", o)
	}
	if got := one.Replicas("k", 3); len(got) != 1 || got[0] != "solo" {
		t.Fatalf("singleton replicas = %v", got)
	}
}
