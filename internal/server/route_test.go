package server

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/transport"
)

// Tests of where a quorum operation is coordinated (quorum.Node.Plan):
// at the node the client reached when it holds a replica of the key, at
// the key's ring owner when it does not, runs GeoAsync, or is catching up.

// coordOf is the node s picks to coordinate op on key at the given tier.
func coordOf(s *Server, op, key string, tier geo.Kind) string {
	coord := s.qnode.Plan(op != "get", key, tier, 0).Coord
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
	srvs := bootCluster(t, spec{model: "quorum", seed: 1000, heartbeat: fastBeat}).srvs
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

// TestLocalPutIsACallNotAMessage: a put coordinated where it lands is a
// call on the key's shard, and the coordinator applies it to its own
// replica in place. The messages it costs the cluster are the two peer
// replica puts and their two acks: none goes from the node to itself.
func TestLocalPutIsACallNotAMessage(t *testing.T) {
	// No liveness heartbeats between the nodes, so the puts' messages are
	// all the cluster sends while they run, bar an anti-entropy round or two.
	srvs := bootCluster(t, spec{seed: 3000, heartbeat: time.Hour, config: nrw(3, 2, 2)}).srvs
	c := dialNode(t, srvs[0], "cli")
	held := func(keys ...string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for _, k := range keys {
			for _, s := range srvs {
				for len(s.qnode.LocalValues(k)) != 1 {
					if time.Now().After(deadline) {
						t.Fatalf("%s never got %s", s.ID(), k)
					}
					time.Sleep(time.Millisecond)
				}
			}
		}
	}
	if err := c.Put("warm", []byte("v")); err != nil {
		t.Fatal(err)
	}
	held("warm")

	sent := func() (n uint64) {
		for _, s := range srvs {
			n += s.tcp.Stats().MessagesSent
		}
		return n
	}
	const puts = 200
	keys := make([]string, puts)
	before := sent()
	for i := range keys {
		keys[i] = fmt.Sprintf("call-%03d", i)
		if coord := coordOf(srvs[0], "put", keys[i], geo.Strong); coord != "node0" {
			t.Fatalf("put %s is coordinated by %s, want node0", keys[i], coord)
		}
		if err := c.Put(keys[i], []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	held(keys...)
	perPut := float64(sent()-before) / puts
	t.Logf("%.2f messages per put", perPut)
	if perPut < 3.9 || perPut >= 5 {
		t.Fatalf("%.2f messages per put, want 4: two peer replica puts and two acks", perPut)
	}
}

// TestPeerEnvelopesPerOperation pins what one client operation through a
// replica costs the peer links of a 3-node cluster, in envelopes written
// to a peer link, as a formula in N, R and W (N=3, R=2, W=2 here). A
// quorum put sends the version to its N−1 peers and each acks: 2(N−1). A
// delete is a put of a tombstone: 2(N−1). A strong get asks R−1 peers for
// a digest and each answers: 2(R−1). An eventual get reads at R=1, the
// coordinator's own replica: 2(1−1) = 0. A gossip put is one chain of
// rumors, one to each of its N−1 peers, and a gossip get is local. What
// a node sends itself is a mailbox post, not an envelope. Liveness
// heartbeats are quieted. A row ends once every replica has applied every
// operation and no envelope has been written for a while (a replica's
// last acks can trail its values), and what the cluster sends while idle
// (its anti-entropy rounds) is measured over a window as long as the
// row's and subtracted.
func TestPeerEnvelopesPerOperation(t *testing.T) {
	const n, r, w = 3, 2, 2
	const ops = 200
	keys := make([]string, ops)
	for i := range keys {
		keys[i] = fmt.Sprintf("budget-%03d", i)
	}
	quorumSrvs := bootCluster(t, spec{seed: 3100, heartbeat: time.Hour, config: nrw(n, r, w)}).srvs
	for _, k := range keys {
		for _, tier := range []geo.Kind{geo.Strong, geo.Eventual} {
			if coord := coordOf(quorumSrvs[0], "get", k, tier); coord != "node0" {
				t.Fatalf("get %s is coordinated by %s, want node0", k, coord)
			}
		}
	}
	qc := dialNode(t, quorumSrvs[0], "cli")
	holds := func(s *Server, k string) bool { return len(s.qnode.LocalValues(k)) == 1 }
	gone := func(s *Server, k string) bool { return len(s.qnode.LocalValues(k)) == 0 }
	countEnvelopes(t, quorumSrvs, qc, keys, []envelopeRow{
		{"quorum put", 2 * (n - 1), holds, func(k string) error { return qc.Put(k, []byte("v")) }},
		{"quorum strong get", 2 * (r - 1), holds, func(k string) error {
			_, _, _, _, err := qc.GetSLA(k, geo.Tier{Kind: geo.Strong})
			return err
		}},
		{"quorum eventual get", 2 * (1 - 1), holds, func(k string) error {
			_, _, _, _, err := qc.GetSLA(k, geo.Tier{Kind: geo.Eventual})
			return err
		}},
		{"quorum delete", 2 * (n - 1), gone, qc.Delete},
	})

	gossipSrvs := bootCluster(t, spec{model: "gossip", seed: 3200, heartbeat: time.Hour, config: nrw(n, r, w)}).srvs
	gc := dialNode(t, gossipSrvs[0], "cli")
	gossipHolds := func(s *Server, k string) bool {
		found := make(chan bool, 1)
		if !s.tcp.Invoke(s.ID(), func(transport.Env) { _, ok := s.gossipN.Get(k); found <- ok }) {
			t.Fatalf("%s stopped", s.ID())
		}
		return <-found
	}
	countEnvelopes(t, gossipSrvs, gc, keys, []envelopeRow{
		{"gossip put", n - 1, gossipHolds, func(k string) error { return gc.Put(k, []byte("v")) }},
		{"gossip get", 0, gossipHolds, func(k string) error {
			_, _, err := gc.Get(k)
			return err
		}},
	})
}

// envelopeRow is one row of TestPeerEnvelopesPerOperation: an operation run
// once per key, the peer envelopes it costs by its formula, and when a
// node has applied it to a key.
type envelopeRow struct {
	name    string
	want    int
	applied func(s *Server, key string) bool
	op      func(key string) error
}

// nrw sets a node's quorum parameters.
func nrw(n, r, w int) func(*Config) {
	return func(c *Config) { c.N, c.R, c.W = n, r, w }
}

// countEnvelopes runs each row over keys through c and checks the peer
// envelopes per operation against the row's formula, less the idle rate.
func countEnvelopes(t *testing.T, srvs []*Server, c *Client, keys []string, rows []envelopeRow) {
	t.Helper()
	envelopes := func() (n uint64) {
		for _, s := range srvs {
			n += s.tcp.Stats().EnvelopesSent
		}
		return n
	}
	// A quorum replica's acks can trail its values, so a quorum row ends
	// once the cluster has been quiet a while. A gossip rumor has no ack,
	// and a gossip cluster's anti-entropy probes, ten a second per node,
	// never leave it quiet: its rows end a moment after every node holds
	// every write.
	settle := func() {
		t.Helper()
		if srvs[0].qnode == nil {
			time.Sleep(100 * time.Millisecond)
			return
		}
		deadline := time.Now().Add(10 * time.Second)
		for last, still := envelopes(), 0; still < 5; {
			if time.Now().After(deadline) {
				t.Fatal("the cluster never went quiet")
			}
			time.Sleep(20 * time.Millisecond)
			if n := envelopes(); n != last {
				last, still = n, 0
			} else {
				still++
			}
		}
	}
	// Every link is up before the first row counts.
	if err := c.Put("warm", []byte("v")); err != nil {
		t.Fatal(err)
	}
	settle()
	for _, row := range rows {
		before, start := envelopes(), time.Now()
		for _, k := range keys {
			if err := row.op(k); err != nil {
				t.Fatalf("%s %s: %v", row.name, k, err)
			}
		}
		// Every node has applied every operation: a put's third copies and
		// acks are part of its cost, and a get must find nothing to repair.
		deadline := time.Now().Add(10 * time.Second)
		for _, k := range keys {
			for _, s := range srvs {
				for !row.applied(s, k) {
					if time.Now().After(deadline) {
						t.Fatalf("%s: %s never applied %s", row.name, s.ID(), k)
					}
					time.Sleep(time.Millisecond)
				}
			}
		}
		settle()
		busy, window := envelopes()-before, time.Since(start)
		before = envelopes()
		time.Sleep(window)
		idle := envelopes() - before
		perOp := (float64(busy) - float64(idle)) / float64(len(keys))
		t.Logf("%s: %.2f peer envelopes per op (%d sent, %d idle over %v)", row.name, perOp, busy, idle, window.Round(time.Millisecond))
		if want := float64(row.want); perOp < want-0.25 || perOp > want+0.25 {
			t.Errorf("%s: %.2f peer envelopes per op, want %d", row.name, perOp, row.want)
		}
	}
}

// TestIdleClusterHeartbeatsEachLinkOnce pins what an idle 3-node quorum
// cluster sends at a 20 ms heartbeat interval. Over TCP the transport's
// heartbeat is a node's only liveness traffic, and it goes only on a link
// with nothing else to carry, so each of the three link pairs carries one
// heartbeat and its echo per interval: 3 × 2 × 50 = 300 envelopes a
// second. On top come the one-in-ten heartbeat a link that carries only
// echoes sends to measure its own round trip, and the anti-entropy rounds;
// a quorum node sends no ping of its own over TCP. No peer may be
// suspected meanwhile.
func TestIdleClusterHeartbeatsEachLinkOnce(t *testing.T) {
	srvs := bootCluster(t, spec{model: "quorum", seed: 1000, heartbeat: fastBeat}).srvs
	envelopes := func() (n uint64) {
		for _, s := range srvs {
			n += s.tcp.Stats().EnvelopesSent
		}
		return n
	}
	time.Sleep(500 * time.Millisecond) // every link up, the boot traffic over
	before, start := envelopes(), time.Now()
	time.Sleep(2 * time.Second)
	rate := float64(envelopes()-before) / time.Since(start).Seconds()
	t.Logf("idle: %.0f peer envelopes/s", rate)
	if rate > 350 {
		t.Errorf("idle: %.0f peer envelopes/s, want ≤ 350: about 300 heartbeats and echoes, the RTT samples and anti-entropy", rate)
	}
	for _, s := range srvs {
		if st := s.status(); len(st.Suspect) > 0 {
			t.Errorf("%s suspects %v on an idle cluster", s.ID(), st.Suspect)
		}
	}
}

// TestNonReplicaForwardsToTheOwner: with N below the cluster size, a node
// that holds no replica of the key hands the operation to the key's
// owner, and the client is served all the same.
func TestNonReplicaForwardsToTheOwner(t *testing.T) {
	srvs := bootCluster(t, spec{model: "quorum", n: 5, seed: 1000, heartbeat: fastBeat}).srvs
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
	s := bootCluster(t, spec{seed: 4000, zones: []string{"us", "eu", "ap"}}).srvs[0]
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

// TestGeoAsyncLocalGetAndForwardedPutShareOneContext: under GeoAsync an
// eventual get at a replica that is not the owner is coordinated in
// place, and a put through the same node is forwarded to the owner. The
// two run on different paths, yet the put must carry the context the get
// read, which the client holds, and supersede the version it saw instead
// of standing beside it.
func TestGeoAsyncLocalGetAndForwardedPutShareOneContext(t *testing.T) {
	srvs := bootCluster(t, spec{seed: 4000, zones: []string{"us", "eu", "ap"}}).srvs
	s := srvs[0]
	k := keyWhere(t, s, func(p []string) bool { return slices.Contains(p, "node0") && p[0] != "node0" })
	if got := coordOf(s, "get", k, geo.Eventual); got != "node0" {
		t.Fatalf("eventual get is coordinated by %s, want node0", got)
	}
	if got := coordOf(s, "put", k, geo.Strong); got == "node0" {
		t.Fatal("the put is coordinated in place, want it forwarded to the owner")
	}
	if err := dialNode(t, srvs[1], "other").Put(k, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	c := dialNode(t, s, "cli")
	for deadline := time.Now().Add(10 * time.Second); ; {
		v, found, _, _, err := c.GetSLA(k, geo.Tier{Kind: geo.Eventual})
		if err == nil && found && string(v) == "v1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("eventual get at node0 never saw v1: %q/%v/%v", v, found, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := c.Put(k, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	vals, err := c.GetSiblings(k)
	if err != nil || len(vals) != 1 || string(vals[0]) != "v2" {
		t.Fatalf("siblings after get-then-put = %q/%v, want [v2]", vals, err)
	}
}

// TestCatchingUpJoinerForwardsToTheOwner: a joiner whose arcs are still
// streaming in holds a replica that answers NotReady, so it hands the
// keys it replicates to their owners, and serves its clients meanwhile.
func TestCatchingUpJoinerForwardsToTheOwner(t *testing.T) {
	cl := bootCluster(t, spec{seed: 2000, heartbeat: fastBeat, durable: true, ckpt: -1,
		config: func(c *Config) {
			// Slow enough that the window stays open for the whole test:
			// ~75 KiB to pull behind a 2 KiB/s bucket.
			c.TransferRate = 2 << 10
			c.TransferBatch = 1 << 10
		}})
	c0 := cl.dial(0, "cli0")
	pad := bytes.Repeat([]byte("x"), 1<<10)
	for i := 0; i < 100; i++ {
		if err := c0.Put(fmt.Sprintf("seed%03d", i), pad); err != nil {
			t.Fatal(err)
		}
	}

	js := cl.join(4001, "")
	if err := c0.AddNode("node3", js.Addr()); err != nil {
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
