package ring

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// Sequential Join/Leave epochs must never leave a key with zero owners:
// at every epoch along a random membership walk, every key has a full
// min(n, size) replica set with distinct members. This is the safety
// property elasticity leans on — placement is always total, even while
// the member set churns.
func TestEpochWalkNeverLeavesKeyUnowned(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 3
	ep := Epoch{Seq: 0, Ring: New(members(3), 32)}
	ks := keys(300)
	next := 3
	for step := 0; step < 40; step++ {
		if ep.Ring.Size() > 2 && rng.Intn(2) == 0 {
			ms := ep.Ring.Members()
			ep = Epoch{Seq: ep.Seq + 1, Ring: ep.Ring.Leave(ms[rng.Intn(len(ms))])}
		} else {
			ep = Epoch{Seq: ep.Seq + 1, Ring: ep.Ring.Join(fmt.Sprintf("node%d", next))}
			next++
		}
		want := n
		if ep.Ring.Size() < want {
			want = ep.Ring.Size()
		}
		for _, k := range ks {
			owners := ep.Ring.Replicas(k, n)
			if len(owners) != want {
				t.Fatalf("epoch %d (size %d): key %q has %d owners %v, want %d",
					ep.Seq, ep.Ring.Size(), k, len(owners), owners, want)
			}
			seen := map[string]bool{}
			for _, o := range owners {
				if o == "" || seen[o] {
					t.Fatalf("epoch %d: key %q owners %v not distinct/non-empty", ep.Seq, k, owners)
				}
				seen[o] = true
			}
		}
	}
}

// DiffN must cover exactly the keys whose n-replica set changed: every
// key is either inside a returned range with Old/New matching the two
// rings' walks, or outside all ranges with an unchanged replica set. On
// a join every changed arc has the joiner in its new set; with n = 1,
// where an arc's sets are its primary owner, that is every moved arc
// flowing to the joiner.
func TestDiffNCoversExactlyChangedReplicaSets(t *testing.T) {
	for _, tc := range []struct {
		n      int
		before *Ring
		joiner string
	}{
		{1, New(members(6), 48), "node6"},
		{3, New(members(4), 64), "node9"},
	} {
		n := tc.n
		before := tc.before
		after := before.Join(tc.joiner)
		diffs := DiffN(before, after, n)
		if len(diffs) == 0 {
			t.Fatalf("n=%d: join produced no replica-set diffs", n)
		}
		for _, g := range diffs {
			if !slices.Contains(g.New, tc.joiner) {
				t.Fatalf("n=%d: range %+v changed without the joiner %s", n, g, tc.joiner)
			}
		}
		for _, k := range keys(5000) {
			h := KeyHash(k)
			var hit *RangeN
			for i := range diffs {
				if diffs[i].Contains(h) {
					if hit != nil {
						t.Fatalf("n=%d: key %q in two ranges", n, k)
					}
					hit = &diffs[i]
				}
			}
			ob, oa := before.Replicas(k, n), after.Replicas(k, n)
			if hit == nil {
				if !reflect.DeepEqual(ob, oa) {
					t.Fatalf("n=%d: key %q changed %v -> %v but no range covers it", n, k, ob, oa)
				}
				continue
			}
			if !reflect.DeepEqual(hit.Old, ob) || !reflect.DeepEqual(hit.New, oa) {
				t.Fatalf("n=%d: key %q: range owners old=%v new=%v, ring says old=%v new=%v",
					n, k, hit.Old, hit.New, ob, oa)
			}
		}
	}
}

// On a join, only the joiner gains ranges (inserting a member can only
// push existing members down or out of a preference walk, never into
// one), and the joiner's gained share of keys is ~K/n of the keyspace.
// On a leave, every changed range's Old set contains the leaver, so
// pull sources for scale-in are always well defined.
func TestDiffNGainInvariants(t *testing.T) {
	const n = 3
	base := New(members(5), 64)

	joined := base.Join("node9")
	gained := 0
	for _, k := range keys(4000) {
		h := KeyHash(k)
		for _, g := range DiffN(base, joined, n) {
			if !g.Contains(h) {
				continue
			}
			for _, m := range g.New {
				if m != "node9" && !slices.Contains(g.Old, m) {
					t.Fatalf("join: member %q gained range %v -> %v", m, g.Old, g.New)
				}
			}
			if g.Gained("node9") {
				gained++
			}
		}
	}
	// The joiner holds n/(size+1) of replica slots: 3/6 = 0.5 of keys
	// gain it here. Pin loosely — the property is "about K·n/size, not
	// everything and not nothing".
	frac := float64(gained) / 4000
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("joiner gained %.2f of keys, want ~0.5", frac)
	}

	left := base.Leave("node2")
	for _, g := range DiffN(base, left, n) {
		if !slices.Contains(g.Old, "node2") {
			t.Fatalf("leave: changed range %v -> %v does not involve the leaver", g.Old, g.New)
		}
	}
}
