package server

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/geo"
)

// Tests of where a quorum operation is coordinated (Server.coordinator):
// at the node the client reached when it holds a replica of the key, at
// the key's ring owner when it does not, runs GeoAsync, or is catching up.

// coordOf is the node s picks to coordinate op on key at the given tier.
func coordOf(s *Server, op, key string, tier geo.Kind) string {
	_, _, coord, _ := s.slaRoute(Request{Op: op, Key: key, SLA: uint8(tier)})
	return coord
}

// keyWhere returns the first key whose preference list, as s sees it,
// satisfies ok.
func keyWhere(t *testing.T, s *Server, ok func(prefs []string) bool) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("route-%d", i)
		if ok(s.qnode.PreferenceList(k)) {
			return k
		}
	}
	t.Fatal("no key with the preference list wanted")
	return ""
}

// TestGetsCoordinateWhereTheyLand: with N equal to the cluster size every
// node is a replica of every key, so a get coordinates where it lands,
// its own replica answers with the value by a mailbox post, and only
// digests cross the peer links. Forwarding to the ring owner moved the
// owner's value to the contacted node for two keys in three (≈2.9 KiB
// per 4 KiB get).
func TestGetsCoordinateWhereTheyLand(t *testing.T) {
	const keys, size = 200, 4 << 10
	srvs := startCluster(t, "quorum", 3, false)
	c := dialNode(t, srvs[0], "cli")
	value := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, size) }
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%03d", i)
		for _, op := range []string{"put", "get"} {
			if got := coordOf(srvs[0], op, k, geo.Strong); got != "node0" {
				t.Fatalf("%s %s is coordinated by %s, want node0", op, k, got)
			}
		}
		if err := c.Put(k, value(i)); err != nil {
			t.Fatal(err)
		}
	}
	// W=2 acked each put: wait for the third copies, so no get below
	// has to repair or re-ask.
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < keys; i++ {
		for _, s := range srvs {
			for len(s.qnode.LocalValues(fmt.Sprintf("k%03d", i))) != 1 {
				if time.Now().After(deadline) {
					t.Fatalf("%s never got k%03d", s.ID(), i)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}

	peerBytes := func() (n uint64) {
		for _, s := range srvs {
			n += s.tcp.Stats().BytesSent
		}
		return n
	}
	before := peerBytes()
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%03d", i)
		if v, found, err := c.Get(k); err != nil || !found || !bytes.Equal(v, value(i)) {
			t.Fatalf("get %s: found=%v err=%v", k, found, err)
		}
	}
	perGet := float64(peerBytes()-before) / keys
	t.Logf("%.0f B between peers per 4 KiB get", perGet)
	if perGet >= 1024 {
		t.Fatalf("%.0f B between peers per 4 KiB get, want < 1 KiB: a value crossed a peer link", perGet)
	}
}

// TestNonReplicaForwardsToTheOwner: with N below the cluster size, a node
// that holds no replica of the key hands the operation to the key's
// owner, and the client is served all the same.
func TestNonReplicaForwardsToTheOwner(t *testing.T) {
	srvs := startCluster(t, "quorum", 5, false)
	s := srvs[0]
	far := keyWhere(t, s, func(p []string) bool { return !slices.Contains(p, "node0") })
	near := keyWhere(t, s, func(p []string) bool { return slices.Contains(p, "node0") && p[0] != "node0" })
	owner := s.Ring().Owner(far)
	for _, op := range []string{"put", "get", "del"} {
		if got := coordOf(s, op, far, geo.Strong); got != owner {
			t.Fatalf("%s of a key node0 does not replicate is coordinated by %s, want its owner %s", op, got, owner)
		}
		if got := coordOf(s, op, near, geo.Strong); got != "node0" {
			t.Fatalf("%s of a key node0 replicates is coordinated by %s, want node0", op, got)
		}
	}
	c := dialNode(t, s, "cli")
	for _, k := range []string{far, near} {
		if err := c.Put(k, []byte("v-"+k)); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
		if v, found, err := c.Get(k); err != nil || !found || string(v) != "v-"+k {
			t.Fatalf("get %s = %q/%v/%v", k, v, found, err)
		}
	}
}

// TestGeoAsyncWritesAndStrongReadsMeetAtTheOwner: under GeoAsync a write
// acks on its coordinator's zone's sub-quorum, so writes and strong reads
// of a key must share a coordinator, the owner, even at a node that holds
// a replica; an eventual read keeps its in-zone rule.
func TestGeoAsyncWritesAndStrongReadsMeetAtTheOwner(t *testing.T) {
	srvs, _ := startGeoCluster(t, 3, []string{"us", "eu", "ap"}, 0, false)
	s := srvs[0]
	k := keyWhere(t, s, func(p []string) bool { return slices.Contains(p, "node0") && p[0] != "node0" })
	owner := s.Ring().Owner(k)
	for _, tc := range []struct {
		op   string
		tier geo.Kind
		want string
	}{
		{"put", geo.Strong, owner},
		{"del", geo.Strong, owner},
		{"get", geo.Strong, owner},
		{"get", geo.Eventual, "node0"},
	} {
		if got := coordOf(s, tc.op, k, tc.tier); got != tc.want {
			t.Fatalf("%s at %s is coordinated by %s, want %s", tc.op, tc.tier, got, tc.want)
		}
	}
	c := dialNode(t, s, "cli")
	if err := c.Put(k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, found, _, _, err := c.GetSLA(k, geo.Tier{Kind: geo.Strong}); err != nil || !found || string(v) != "v" {
		t.Fatalf("strong get = %q/%v/%v", v, found, err)
	}
}

// TestCatchingUpJoinerForwardsToTheOwner: a joiner whose arcs are still
// streaming in holds a replica that answers NotReady, so it hands the
// keys it replicates to their owners, and serves its clients meanwhile.
func TestCatchingUpJoinerForwardsToTheOwner(t *testing.T) {
	cfgs := durableConfigs(t, "quorum", 3, -1)
	for i := range cfgs {
		// Slow enough that the window stays open for the whole test:
		// ~75 KiB to pull behind a 2 KiB/s bucket.
		cfgs[i].TransferRate = 2 << 10
		cfgs[i].TransferBatch = 1 << 10
	}
	srvs := make([]*Server, len(cfgs))
	for i, cfg := range cfgs {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = s
		t.Cleanup(s.Close)
	}
	c0 := dialNode(t, srvs[0], "cli0")
	pad := bytes.Repeat([]byte("x"), 1<<10)
	for i := 0; i < 100; i++ {
		if err := c0.Put(fmt.Sprintf("seed%03d", i), pad); err != nil {
			t.Fatal(err)
		}
	}

	addr := reservePorts(t, 1)[0]
	jcfg := joinerConfig(t, cfgs[0], "node3", addr, 4001)
	js, err := New(jcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(js.Close)
	if err := c0.AddNode("node3", addr); err != nil {
		t.Fatalf("add-node: %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); !js.qnode.CatchingUp(); {
		if time.Now().After(deadline) {
			t.Fatal("the joiner never started catching up")
		}
		time.Sleep(5 * time.Millisecond)
	}

	k := keyWhere(t, js, func(p []string) bool { return slices.Contains(p, "node3") && p[0] != "node3" })
	owner := js.Ring().Owner(k)
	for _, op := range []string{"put", "get"} {
		if got := coordOf(js, op, k, geo.Strong); got != owner {
			t.Fatalf("%s at a catching-up replica is coordinated by %s, want the owner %s", op, got, owner)
		}
	}
	jc := dialNode(t, js, "cli3")
	if err := jc.Put(k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, found, err := jc.Get(k); err != nil || !found || string(v) != "v" {
		t.Fatalf("get through the joiner = %q/%v/%v", v, found, err)
	}
	if !js.qnode.CatchingUp() {
		t.Fatal("the joiner caught up before the checks ran; lower TransferRate")
	}
}
