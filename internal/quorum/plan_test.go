package quorum

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/ring"
)

// planRing is six members over three zones, s0 and s3 in "us": with N=3
// every key's replicas are one member of each zone.
func planRing() *ring.Ring {
	ids := []string{"s0", "s1", "s2", "s3", "s4", "s5"}
	return ring.NewZoned(ids, ring.DefaultVirtualNodes, geo.AssignRoundRobin(ids, []string{"us", "eu", "ap"}))
}

// planKey returns the first key whose replicas under r satisfy ok.
func planKey(t *testing.T, r *ring.Ring, ok func(prefs []string) bool) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("plan-%d", i)
		if ok(r.Replicas(k, 3)) {
			return k
		}
	}
	t.Fatal("no key with the replicas wanted")
	return ""
}

// TestPlanTable: the coordinator, the read quorum and the tier delivered
// of every client operation, at s0 of a zoned six-node ring, by whether
// s0 holds a replica of the key, holds none, or holds one but is
// catching up, with GeoAsync off and on. "self" is s0, "owner" the key's
// first replica, "zone" s3, the key's replica in s0's zone.
func TestPlanTable(t *testing.T) {
	r := planRing()
	replicated := planKey(t, r, func(p []string) bool { return slices.Contains(p, "s0") && p[0] != "s0" })
	elsewhere := planKey(t, r, func(p []string) bool { return !slices.Contains(p, "s0") && p[0] != "s3" })
	const (
		replica = iota
		nonReplica
		catchingUp
	)
	kinds := []string{"replica", "non-replica", "catching up"}
	ops := []struct {
		name  string
		write bool
		tier  geo.Kind
		bound int64
		// stamp is how long ago, in ms, every remote zone's high water
		// was heard; -1: never.
		stamp int64
		r     int
		want  geo.Kind
		// off and on are the coordinators by node kind, GeoAsync off and on.
		off, on [3]string
	}{
		{"put or delete", true, geo.Strong, 0, 0, 0, geo.Strong,
			[3]string{"self", "owner", "owner"}, [3]string{"owner", "owner", "owner"}},
		{"strong get", false, geo.Strong, 0, 0, 0, geo.Strong,
			[3]string{"self", "owner", "owner"}, [3]string{"owner", "owner", "owner"}},
		{"eventual get", false, geo.Eventual, 0, 0, 1, geo.Eventual,
			[3]string{"self", "zone", "self"}, [3]string{"self", "zone", "self"}},
		{"bounded get within its bound", false, geo.Bounded, 60_000, 0, 1, geo.Eventual,
			[3]string{"self", "zone", "self"}, [3]string{"self", "zone", "self"}},
		{"bounded get over its bound", false, geo.Bounded, 1000, 60_000, 0, geo.Strong,
			[3]string{"self", "owner", "owner"}, [3]string{"owner", "owner", "owner"}},
		{"bounded get unmeasured", false, geo.Bounded, 60_000, -1, 0, geo.Strong,
			[3]string{"self", "owner", "owner"}, [3]string{"owner", "owner", "owner"}},
	}
	for _, geoAsync := range []bool{false, true} {
		for kind, name := range kinds {
			for _, op := range ops {
				n := NewNode("s0", Config{Ring: r.Members(), N: 3, R: 2, W: 2, Placement: r, Zone: "us", GeoAsync: geoAsync})
				key := replicated
				switch kind {
				case nonReplica:
					key = elsewhere
				case catchingUp:
					n.gate.Store(&gate{seq: 1, total: 1, pending: []TransferPull{{Source: "s1", Start: 0, End: 1}}})
				}
				if op.stamp >= 0 {
					for _, z := range []string{"eu", "ap"} {
						n.noteZoneHigh(geoStamp{Zone: z, HighTS: nowMs() - op.stamp})
					}
				}
				coords := op.off
				if geoAsync {
					coords = op.on
				}
				want := map[string]string{"self": "s0", "owner": r.Owner(key), "zone": "s3"}[coords[kind]]
				p := n.Plan(op.write, key, op.tier, op.bound)
				if p.Coord != want || p.R != op.r || p.Tier != op.want {
					t.Errorf("GeoAsync %v, %s node, %s: coordinator %s, R %d, tier %s; want %s (%s), R %d, tier %s",
						geoAsync, name, op.name, p.Coord, p.R, p.Tier, want, coords[kind], op.r, op.want)
				}
				if !op.write && op.tier != geo.Strong && (op.stamp < 0) != (p.StaleMs < 0) {
					t.Errorf("GeoAsync %v, %s node, %s: staleness %d ms, measured %v", geoAsync, name, op.name, p.StaleMs, op.stamp >= 0)
				}
			}
		}
	}
}

// TestPlanAllocatesNothing: planning a tiered read reads the worst remote
// zone's staleness in place, so the plan step allocates nothing.
func TestPlanAllocatesNothing(t *testing.T) {
	r := planRing()
	n := NewNode("s0", Config{Ring: r.Members(), N: 3, R: 2, W: 2, Placement: r, Zone: "us"})
	for _, z := range []string{"eu", "ap"} {
		n.noteZoneHigh(geoStamp{Zone: z, HighTS: nowMs()})
	}
	key := planKey(t, r, func(p []string) bool { return !slices.Contains(p, "s0") })
	for _, tier := range []geo.Kind{geo.Bounded, geo.Eventual, geo.Strong} {
		if allocs := testing.AllocsPerRun(100, func() { n.Plan(false, key, tier, 60_000) }); allocs != 0 {
			t.Errorf("planning a %s get allocates %.1f times", tier, allocs)
		}
	}
}
