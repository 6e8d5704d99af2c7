package ring

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// threeZones maps node0..node(n-1) round-robin onto us/eu/ap.
func threeZones(n int) map[string]string {
	zs := make(map[string]string, n)
	names := []string{"us", "eu", "ap"}
	for i := 0; i < n; i++ {
		zs[fmt.Sprintf("node%d", i)] = names[i%3]
	}
	return zs
}

func distinctZones(members []string, zones map[string]string) int {
	seen := map[string]bool{}
	for _, m := range members {
		seen[zones[m]] = true
	}
	return len(seen)
}

// Zone-aware placement must spread every key's replica set across
// zones: with 3 zones and N=3, every key gets exactly one replica per
// zone.
func TestZonedReplicasSpanZones(t *testing.T) {
	zs := threeZones(9)
	r := NewZoned(members(9), 64, zs)
	for _, k := range keys(500) {
		reps := r.Replicas(k, 3)
		if len(reps) != 3 {
			t.Fatalf("Replicas(%q, 3) = %v", k, reps)
		}
		if got := distinctZones(reps, zs); got != 3 {
			t.Fatalf("Replicas(%q, 3) = %v spans %d zones, want 3", k, reps, got)
		}
	}
}

// The zone spread is a re-ordering, not a re-placement: the Owner (the
// first clockwise member) is identical to the unzoned ring, so primary
// routing and the vnode wire contract are untouched.
func TestZonedOwnerMatchesUnzoned(t *testing.T) {
	plain := New(members(9), 64)
	zoned := NewZoned(members(9), 64, threeZones(9))
	for _, k := range keys(1000) {
		if got, want := zoned.Owner(k), plain.Owner(k); got != want {
			t.Fatalf("Owner(%q) = %q on zoned ring, %q on plain ring", k, got, want)
		}
	}
}

// A uniform zone map (or one with a single zone) must change nothing:
// clusters that never configure zones keep byte-identical placement.
func TestSingleZoneMatchesUnzoned(t *testing.T) {
	zs := map[string]string{}
	for _, m := range members(7) {
		zs[m] = "onezone"
	}
	plain := New(members(7), 64)
	zoned := NewZoned(members(7), 64, zs)
	for _, k := range keys(500) {
		if got, want := zoned.Sequence(k), plain.Sequence(k); !reflect.DeepEqual(got, want) {
			t.Fatalf("Sequence(%q) = %v zoned, %v plain", k, got, want)
		}
	}
}

// Zoned placement stays a pure function of (member set, zone map):
// construction order must not matter.
func TestZonedPlacementDeterministic(t *testing.T) {
	ms := members(9)
	zs := threeZones(9)
	a := NewZoned(ms, 64, zs)
	shuffled := append([]string(nil), ms...)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		b := NewZoned(shuffled, 64, zs)
		for _, k := range keys(300) {
			if got, want := b.Sequence(k), a.Sequence(k); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: Sequence(%q) = %v, want %v", trial, k, got, want)
			}
		}
	}
}

// The zoned Sequence still enumerates every member exactly once —
// quorum's sloppy fallback walk depends on it.
func TestZonedSequenceComplete(t *testing.T) {
	r := NewZoned(members(9), 32, threeZones(9))
	for _, k := range keys(300) {
		seq := r.Sequence(k)
		if len(seq) != 9 {
			t.Fatalf("Sequence(%q) has %d members", k, len(seq))
		}
		seen := map[string]bool{}
		for _, m := range seq {
			if seen[m] {
				t.Fatalf("duplicate %q in Sequence(%q) = %v", m, k, seq)
			}
			seen[m] = true
		}
	}
}

// Satellite: elasticity must never cost a key its zone diversity. Walk
// a 3-zone ring through random join/leave epochs (keeping >= 2 members
// per zone so diversity stays achievable); at every step, every key's
// replica set spans 3 zones AND every DiffN arc's New set spans 3
// zones — no arc loses zone diversity across the transition.
func TestZoneDiversityAcrossEpochs(t *testing.T) {
	const n = 3
	rng := rand.New(rand.NewSource(23))
	zoneNames := []string{"us", "eu", "ap"}
	zs := threeZones(9)
	ep := Epoch{Seq: 0, Ring: NewZoned(members(9), 32, zs)}
	ks := keys(400)
	next := 9
	perZone := func(r *Ring) map[string]int {
		out := map[string]int{}
		for _, m := range r.Members() {
			out[r.ZoneOf(m)]++
		}
		return out
	}
	for step := 0; step < 30; step++ {
		before := ep.Ring
		counts := perZone(before)
		if rng.Intn(2) == 0 && before.Size() < 15 {
			z := zoneNames[rng.Intn(3)]
			ep = Epoch{Seq: ep.Seq + 1, Ring: ep.Ring.JoinZone(fmt.Sprintf("node%d", next), z)}
			next++
		} else {
			// Decommission a random member whose zone keeps >= 2 nodes.
			ms := before.Members()
			var victim string
			for _, i := range rng.Perm(len(ms)) {
				if counts[before.ZoneOf(ms[i])] > 2 {
					victim = ms[i]
					break
				}
			}
			if victim == "" {
				continue
			}
			ep = Epoch{Seq: ep.Seq + 1, Ring: ep.Ring.Leave(victim)}
		}
		after := ep.Ring
		for _, k := range ks {
			reps := after.Replicas(k, n)
			if got := distinctZones(reps, after.Zones()); got != 3 {
				t.Fatalf("step %d: key %q replicas %v span %d zones, want 3", step, k, reps, got)
			}
		}
		for _, g := range DiffN(before, after, n) {
			if got := distinctZones(g.New, after.Zones()); got != 3 {
				t.Fatalf("step %d: arc (%x,%x] New=%v spans %d zones, want 3",
					step, g.Start, g.End, g.New, got)
			}
		}
	}
}

// DiffN on a zoned ring must still cover exactly the keys whose
// replica set changed — the transfer machinery reads these arcs.
func TestZonedDiffNCoversExactlyChangedReplicaSets(t *testing.T) {
	const n = 3
	before := NewZoned(members(9), 64, threeZones(9))
	after := before.JoinZone("node9", "us")
	diffs := DiffN(before, after, n)
	if len(diffs) == 0 {
		t.Fatal("zoned join produced no replica-set diffs")
	}
	for _, k := range keys(2000) {
		h := KeyHash(k)
		var hit *RangeN
		for i := range diffs {
			if diffs[i].Contains(h) {
				if hit != nil {
					t.Fatalf("key %q in two ranges", k)
				}
				hit = &diffs[i]
			}
		}
		ob, oa := before.Replicas(k, n), after.Replicas(k, n)
		if hit == nil {
			if !reflect.DeepEqual(ob, oa) {
				t.Fatalf("key %q changed %v -> %v but no range covers it", k, ob, oa)
			}
			continue
		}
		if !reflect.DeepEqual(hit.Old, ob) || !reflect.DeepEqual(hit.New, oa) {
			t.Fatalf("key %q: range owners old=%v new=%v, ring says old=%v new=%v",
				k, hit.Old, hit.New, ob, oa)
		}
	}
}

// Join/Leave must carry the zone map through derived rings.
func TestZoneMapCarriesThroughJoinLeave(t *testing.T) {
	r := NewZoned(members(6), 32, threeZones(6))
	r2 := r.JoinZone("node6", "us").Leave("node1")
	if got := r2.ZoneOf("node6"); got != "us" {
		t.Fatalf("joiner zone = %q, want us", got)
	}
	if got := r2.ZoneOf("node1"); got != "" {
		t.Fatalf("leaver still zoned %q", got)
	}
	if got := r2.ZoneOf("node3"); got != "us" {
		t.Fatalf("node3 zone = %q, want us", got)
	}
}
