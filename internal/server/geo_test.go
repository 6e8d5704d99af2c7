package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geo"
)

// TestClusterGeoSLATiers is the tentpole acceptance scenario scaled to a
// unit test: a zoned cluster where the same workload trades consistency
// for latency per SLA tier. Strong reads route through the ring owner
// and see every acked write at cross-zone cost; eventual reads serve
// R=1 from an in-zone replica at local latency and converge once the
// async replicator ships the write over.
func TestClusterGeoSLATiers(t *testing.T) {
	const xzDelay = 20 * time.Millisecond
	cl := bootCluster(t, spec{n: 6, seed: 4000, zones: []string{"us", "eu", "ap"}, xzDelay: xzDelay})
	c0 := cl.dial(0, "geo-cli0") // node0 is in "us"

	keys := make([]string, 5)
	for i := range keys {
		keys[i] = fmt.Sprintf("geo-k%d", i)
		if err := c0.Put(keys[i], []byte("v-"+keys[i])); err != nil {
			t.Fatalf("put %s: %v", keys[i], err)
		}
	}

	// Strong reads see every acked write immediately: the contacted node
	// forwards to the ring owner, which reads a full R quorum including
	// the replica that coordinated the write.
	for _, k := range keys {
		v, found, delivered, _, err := c0.GetSLA(k, geo.Tier{Kind: geo.Strong})
		if err != nil || !found || string(v) != "v-"+k {
			t.Fatalf("strong get %s = %q/%v/%v", k, v, found, err)
		}
		if delivered != geo.Strong {
			t.Fatalf("strong get %s delivered %s", k, delivered)
		}
	}

	// Eventual reads serve from node0's zone and converge once the
	// cross-zone replicator delivers (writes coordinated in other zones
	// reach "us" asynchronously).
	for _, k := range keys {
		deadline := time.Now().Add(15 * time.Second)
		for {
			v, found, delivered, _, err := c0.GetSLA(k, geo.Tier{Kind: geo.Eventual})
			if err == nil && found && string(v) == "v-"+k {
				if delivered != geo.Eventual {
					t.Fatalf("eventual get %s delivered %s", k, delivered)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("eventual read of %s never converged: %q/%v/%v", k, v, found, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// The trade the tiers exist for: eventual reads are measurably
	// faster than strong reads because they never cross a zone.
	medianGet := func(tier geo.Tier) time.Duration {
		var lats []time.Duration
		for i := 0; i < 7; i++ {
			k := keys[i%len(keys)]
			start := time.Now()
			if _, _, _, _, err := c0.GetSLA(k, tier); err != nil {
				t.Fatalf("get %s at %s: %v", k, tier, err)
			}
			lats = append(lats, time.Since(start))
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return lats[len(lats)/2]
	}
	strong := medianGet(geo.Tier{Kind: geo.Strong})
	eventual := medianGet(geo.Tier{Kind: geo.Eventual})
	if eventual >= strong {
		t.Fatalf("eventual reads not faster: eventual=%s strong=%s (xzone delay %s)", eventual, strong, xzDelay)
	}
	t.Logf("median read latency: strong=%s eventual=%s", strong, eventual)

	// Responses carry the serving node's zone.
	resp, err := c0.do(Request{Op: "get", Key: keys[0], SLA: uint8(geo.Eventual)}, false)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Zone != cl.cfgs[0].Zone {
		t.Fatalf("response zone = %q, want %q", resp.Zone, cl.cfgs[0].Zone)
	}
}

// BenchmarkGeoSLARead measures each SLA tier's read latency against a
// zoned cluster of 6 nodes over 3 zones with a 2ms delay on every
// cross-zone frame. Strong reads pay the injected RTT through the ring
// owner's full R quorum; eventual reads serve R=1 from a replica in the
// contacted node's own zone and never cross a zone — the gap between the
// two cells is the latency the SLA tiers trade in.
func BenchmarkGeoSLARead(b *testing.B) {
	const keys = 64
	c := bootCluster(b, spec{n: 6, seed: 4000, zones: []string{"us", "eu", "ap"}, xzDelay: 2 * time.Millisecond}).dial(0, "geobench")
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("geo-%d", i)
		if err := c.Put(names[i], []byte("v")); err != nil {
			b.Fatal(err)
		}
	}
	// Let the async replicator land every key in node0's zone, so the
	// timed loops measure serving latency, not convergence waits.
	deadline := time.Now().Add(30 * time.Second)
	for _, k := range names {
		for {
			_, found, _, _, err := c.GetSLA(k, geo.Tier{Kind: geo.Eventual})
			if err == nil && found {
				break
			}
			if time.Now().After(deadline) {
				b.Fatalf("key %s never replicated to node0's zone", k)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	for _, tc := range []struct {
		name string
		tier geo.Tier
	}{
		{"strong", geo.Tier{Kind: geo.Strong}},
		{"eventual", geo.Tier{Kind: geo.Eventual}},
		{"bounded", geo.Tier{Kind: geo.Bounded, Bound: time.Minute}},
	} {
		b.Run("tier="+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, _, err := c.GetSLA(names[i%keys], tc.tier); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestClusterGeoBoundedStaleness: a bounded read with a generous bound
// serves the eventual path once the node has staleness measurements for
// every remote zone, and escalates to strong while it does not.
func TestClusterGeoBoundedStaleness(t *testing.T) {
	c0 := bootCluster(t, spec{n: 6, seed: 4000, zones: []string{"us", "eu", "ap"}, xzDelay: 10 * time.Millisecond}).dial(0, "geo-cli-b")

	if err := c0.Put("bk", []byte("bv")); err != nil {
		t.Fatal(err)
	}

	// Until beacons from every remote zone arrive the node has no
	// staleness measurement and must escalate; afterwards the bounded
	// read rides the eventual path. Either answer is correct at any
	// instant — what must hold is that it settles on eventual.
	tier := geo.Tier{Kind: geo.Bounded, Bound: time.Hour}
	deadline := time.Now().Add(15 * time.Second)
	for {
		v, found, delivered, staleMs, err := c0.GetSLA("bk", tier)
		if err != nil {
			t.Fatalf("bounded get: %v", err)
		}
		if found && string(v) == "bv" && delivered == geo.Eventual {
			if staleMs < 0 {
				t.Fatalf("eventual-tier bounded read without a staleness measurement (staleMs=%d)", staleMs)
			}
			break
		}
		if delivered != geo.Strong && delivered != geo.Eventual {
			t.Fatalf("bounded get delivered %s", delivered)
		}
		if time.Now().After(deadline) {
			t.Fatalf("bounded read never settled on eventual: %q/%v delivered=%s staleMs=%d", v, found, delivered, staleMs)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestUnknownSLATierIsRefused: a request names its tier in one byte, and
// every model refuses one it does not know, naming it, where the request
// arrives, instead of serving it as some other tier.
func TestUnknownSLATierIsRefused(t *testing.T) {
	for _, model := range []string{"quorum", "gossip", "session"} {
		c := dialNode(t, bootCluster(t, spec{model: model, n: 1, seed: 1000, heartbeat: fastBeat}).srvs[0], "cli-"+model)
		_, _, delivered, _, err := c.GetSLA("k", geo.Tier{Kind: 7})
		if err == nil || !strings.Contains(err.Error(), "unknown SLA tier 7") {
			t.Fatalf("%s: a get at tier 7 answered %v (tier %s), want it refused", model, err, delivered)
		}
	}
}

// TestGeoMetricsEndpoint: a zoned node exports the geo series — the
// per-zone staleness gauge, replicator counters, and per-zone RTT.
func TestGeoMetricsEndpoint(t *testing.T) {
	srvs := bootCluster(t, spec{seed: 4000, http: true, zones: []string{"us", "eu", "ap"}, xzDelay: 5 * time.Millisecond}).srvs
	c0 := dialNode(t, srvs[0], "geo-cli-m")
	for i := 0; i < 10; i++ {
		if err := c0.Put(fmt.Sprintf("mk%d", i), []byte("mv")); err != nil {
			t.Fatal(err)
		}
	}

	want := []string{"ec_geo_staleness_ms{zone=", "ec_geo_queue_depth", "ec_geo_shipped_total", "ec_zone_rtt_seconds{zone="}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get("http://" + srvs[0].HTTPAddr() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		body := string(b)
		missing := ""
		for _, w := range want {
			if !strings.Contains(body, w) {
				missing = w
				break
			}
		}
		if missing == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics never exported %q; body:\n%s", missing, body)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestJoinedNodeCountsInItsZone: a node admitted with AddNodeZone counts
// in the zone its join epoch names, on every member. Three GeoAsync
// nodes over us/eu admit node3 in eu, then take 200 puts through node0;
// every write is coordinated by its key's owner, which replicates to its
// own zone synchronously and ships only to the other zone. So the
// entries the cross-zone replicators acknowledge, summed over the nodes,
// are exactly the cross-zone replicas the current epoch's zones name. An
// owner in eu that took node3 for cross-zone would ship it more.
func TestJoinedNodeCountsInItsZone(t *testing.T) {
	cl := bootCluster(t, spec{seed: 4000, zones: []string{"us", "eu"}})
	srvs := cl.srvs
	js := cl.join(4003, "eu")
	c0 := dialNode(t, srvs[0], "geo-join-cli")
	if err := c0.AddNodeZone("node3", js.Addr(), "eu"); err != nil {
		t.Fatalf("add-node: %v", err)
	}
	waitRingState(t, dialNode(t, js, "geo-join-watch"), "node3", stateOK, 30*time.Second)
	all := append(srvs, js)
	eventually(t, "the join epoch settles on every member", func() bool {
		for _, s := range all {
			if ep := s.qnode.Epoch(); ep.Seq != 1 || ep.Prev != nil {
				return false
			}
		}
		return true
	})

	ep := srvs[0].qnode.Epoch()
	want := 0
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("jz%03d", i)
		if err := c0.Put(key, []byte("v")); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
		prefs := srvs[0].qnode.PreferenceList(key)
		for _, p := range prefs[1:] {
			if ep.Ring.ZoneOf(p) != ep.Ring.ZoneOf(prefs[0]) {
				want++
			}
		}
	}
	acked := func() (sum uint64, queued int) {
		for _, s := range all {
			sum += atomic.LoadUint64(&s.qnode.GeoAcked)
			q, _ := s.qnode.GeoQueue()
			queued += q
		}
		return sum, queued
	}
	eventually(t, "the cross-zone replicators drain", func() bool {
		sum, queued := acked()
		return queued == 0 && sum >= uint64(want)
	})
	if sum, _ := acked(); sum != uint64(want) {
		t.Fatalf("cross-zone replicators acknowledged %d entries; the epoch's zones name %d cross-zone replicas", sum, want)
	}
}
