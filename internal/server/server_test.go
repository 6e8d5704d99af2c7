package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
)

func TestClusterGossipPutGetOverTCP(t *testing.T) {
	srvs := bootCluster(t, spec{model: "gossip", seed: 1000, heartbeat: fastBeat}).srvs
	c0 := dialNode(t, srvs[0], "cli0")

	if st, _, err := c0.Status(); err != nil || st.Model != "gossip" || st.ID != "node0" {
		t.Fatalf("status = %s/%s, %v", st.ID, st.Model, err)
	}
	if err := c0.Put("fruit", []byte("mango")); err != nil {
		t.Fatal(err)
	}
	// Local read is immediate.
	if v, found, err := c0.Get("fruit"); err != nil || !found || string(v) != "mango" {
		t.Fatalf("local get = %q/%v/%v", v, found, err)
	}
	// A different replica sees it after anti-entropy.
	c1 := dialNode(t, srvs[1], "cli1")
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, found, err := c1.Get("fruit")
		if err == nil && found && string(v) == "mango" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never converged: %q/%v/%v", v, found, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := c0.Delete("fruit"); err != nil {
		t.Fatal(err)
	}
	if _, found, err := c0.Get("fruit"); err != nil || found {
		t.Fatalf("deleted key still found (err %v)", err)
	}
}

// A fresh gossip write's rumor chain ends at the last peer: on three
// nodes a put on node0 sends one rumor to a peer, which sends one to the
// other. A third would only return to node0, which holds the write.
func TestGossipRumorChainEndsAtTheLastPeer(t *testing.T) {
	srvs := bootCluster(t, spec{model: "gossip", seed: 1000, heartbeat: fastBeat}).srvs
	c0 := dialNode(t, srvs[0], "cli0")
	const puts = 100
	for i := range puts {
		if err := c0.Put(fmt.Sprintf("k%03d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range srvs {
		c := dialNode(t, s, "cli-"+s.ID())
		deadline := time.Now().Add(10 * time.Second)
		for i := 0; i < puts; {
			if _, found, err := c.Get(fmt.Sprintf("k%03d", i)); err == nil && found {
				i++
				continue
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never got k%03d", s.ID(), i)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// Every rumor is sent by the invocation that installs its write, so
	// with every write everywhere the counts are final.
	var rumors uint64
	for _, s := range srvs {
		got := make(chan uint64, 1)
		if !s.tcp.Invoke(s.ID(), func(transport.Env) { got <- s.gossipN.Rumors }) {
			t.Fatalf("%s stopped", s.ID())
		}
		rumors += <-got
	}
	if rumors != 2*puts {
		t.Fatalf("%d puts sent %d rumors, want %d", puts, rumors, 2*puts)
	}
}

func TestClusterQuorumPutGetOverTCP(t *testing.T) {
	srvs := bootCluster(t, spec{model: "quorum", seed: 1000, heartbeat: fastBeat}).srvs
	c0 := dialNode(t, srvs[0], "cli0")

	for i := 0; i < 5; i++ {
		key, val := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		if err := c0.Put(key, []byte(val)); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
	}
	// Quorum reads are immediate from any node: R+W > N.
	c2 := dialNode(t, srvs[2], "cli2")
	for i := 0; i < 5; i++ {
		key, want := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		v, found, err := c2.Get(key)
		if err != nil || !found || string(v) != want {
			t.Fatalf("get %s via node2 = %q/%v/%v, want %q", key, v, found, err, want)
		}
	}
	if err := c2.Delete("k0"); err != nil {
		t.Fatal(err)
	}
	if _, found, err := c0.Get("k0"); err != nil || found {
		t.Fatalf("deleted key still found via node0 (err %v)", err)
	}
}

// TestClusterSessionRYWAcrossReconnect is the acceptance scenario: a
// session client writes at one node, disconnects, reconnects to a
// DIFFERENT node carrying its token, and must read its own write —
// the server blocks the read until anti-entropy delivers it rather than
// answering stale.
func TestClusterSessionRYWAcrossReconnect(t *testing.T) {
	srvs := bootCluster(t, spec{model: "session", seed: 1000, heartbeat: fastBeat}).srvs

	c0 := dialNode(t, srvs[0], "alice")
	for i := 1; i <= 3; i++ {
		if err := c0.Put("profile", []byte(fmt.Sprintf("rev%d", i))); err != nil {
			t.Fatalf("put rev%d: %v", i, err)
		}
	}
	token := c0.Token()
	if token.Write == nil {
		t.Fatal("session token not round-tripped on writes")
	}
	c0.Close()

	// Reconnect to another node with the token: read-your-writes must
	// hold even though that replica may not have the write yet.
	c1 := dialNode(t, srvs[1], "alice")
	c1.SetToken(token)
	v, found, err := c1.Get("profile")
	if err != nil || !found || string(v) != "rev3" {
		t.Fatalf("RYW across reconnect = %q/%v/%v, want rev3", v, found, err)
	}

	// Without the token a fresh session has no floor: any answer is
	// legal, but the connection must still serve.
	c2 := dialNode(t, srvs[2], "mallory")
	if _, _, err := c2.Get("profile"); err != nil {
		t.Fatalf("tokenless read failed: %v", err)
	}
}

// TestClusterSurvivesNodeKill kills one node and checks (a) the
// survivors keep serving and (b) /healthz on a survivor reports the
// dead peer as suspected, straight from the phi-accrual detector fed by
// real TCP heartbeats.
func TestClusterSurvivesNodeKill(t *testing.T) {
	srvs := bootCluster(t, spec{model: "gossip", seed: 1000, heartbeat: fastBeat, http: true}).srvs
	c0 := dialNode(t, srvs[0], "cli0")
	if err := c0.Put("before", []byte("kill")); err != nil {
		t.Fatal(err)
	}

	srvs[2].Close()

	// Survivor keeps serving.
	if err := c0.Put("after", []byte("kill")); err != nil {
		t.Fatalf("survivor stopped serving: %v", err)
	}
	if v, found, err := c0.Get("after"); err != nil || !found || string(v) != "kill" {
		t.Fatalf("survivor get = %q/%v/%v", v, found, err)
	}

	// /healthz on node0 flips node2 to suspected within a few heartbeats.
	url := "http://" + srvs[0].HTTPAddr() + "/healthz"
	deadline := time.Now().Add(15 * time.Second)
	for {
		var h struct {
			ID      string   `json:"id"`
			OK      bool     `json:"ok"`
			Suspect []string `json:"suspected_peers"`
		}
		resp, err := http.Get(url)
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
		}
		if err == nil && h.OK && h.ID == "node0" {
			dead := false
			for _, p := range h.Suspect {
				if p == "node2" {
					dead = true
				}
			}
			if dead {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never suspected the killed node: %+v (err %v)", h, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestRestartedEmptyReplicaConvergesOverTCP: a node that comes back with
// nothing, beside two peers that share more than one frame may carry
// (transport.MaxFrameSize) with it, gets it all back by anti-entropy, and
// no peer had to drop a message to do it. As one frame per round, which is
// how anti-entropy used to answer, the data never arrives: the writer
// refuses the frame, counts it dropped, and the next round builds it again.
// Quorum reads node2's store directly; gossip and session serve a
// token-less get from the local replica, so a client of node2 sees it.
func TestRestartedEmptyReplicaConvergesOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("moves 17 MiB three times over loopback TCP")
	}
	const nKeys, valueSize = 1100, 16 << 10
	if nKeys*valueSize <= transport.MaxFrameSize {
		t.Fatal("the dataset fits one frame")
	}
	for _, model := range []string{"quorum", "gossip", "session"} {
		t.Run(model, func(t *testing.T) {
			cl := bootCluster(t, spec{model: model, seed: 2000, heartbeat: fastBeat})
			srvs := cl.srvs
			c := dialNode(t, srvs[0], "loader")
			value := make([]byte, valueSize)
			for i := 0; i < nKeys; i++ {
				if err := c.Put(fmt.Sprintf("key-%04d", i), value); err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
			}

			s2 := cl.restart(2) // no data directory: it boots empty
			has := func(key string) bool { return len(s2.qnode.LocalValues(key)) == 1 }
			if model != "quorum" {
				r := dialNode(t, s2, "reader")
				has = func(key string) bool {
					v, found, err := r.Get(key)
					if err != nil {
						t.Fatalf("get %s from node2: %v", key, err)
					}
					return found && len(v) == valueSize
				}
			}
			dropped := func() uint64 { return srvs[0].tcp.Stats().MessagesDropped + srvs[1].tcp.Stats().MessagesDropped }
			before := dropped()
			deadline := time.Now().Add(60 * time.Second)
			for i := 0; i < nKeys; {
				if has(fmt.Sprintf("key-%04d", i)) {
					i++
					continue
				}
				if time.Now().After(deadline) {
					t.Fatalf("node2 never got key %d of %d back; its peers dropped %d messages meanwhile", i, nKeys, dropped()-before)
				}
				time.Sleep(20 * time.Millisecond)
			}
			if after := dropped(); after != before {
				t.Fatalf("the peers dropped %d messages while node2 caught up", after-before)
			}
		})
	}
}

func TestMetricsEndpointRenders(t *testing.T) {
	srvs := bootCluster(t, spec{model: "quorum", seed: 1000, heartbeat: fastBeat, http: true}).srvs
	c0 := dialNode(t, srvs[0], "cli0")
	if err := c0.Put("m", []byte("1")); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srvs[0].HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"ec_transport_frames_sent_total",
		`ec_requests_total{op="put"} 1`,
		"ec_request_seconds{quantile=\"0.99\"}",
		`ec_peer_phi{peer="node1"}`,
		"# HELP ec_read_repairs_total ",
		"\nec_read_repairs_total ",
		"# HELP ec_read_hedges_total ",
		"\nec_read_hedges_total ",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
}

// An op name is the client's string: a client that invents op names
// must not add a request series per name to /metrics. Every unknown op
// counts under one op="unknown".
func TestInventedOpsShareOneMetricSeries(t *testing.T) {
	srvs := bootCluster(t, spec{model: "gossip", n: 1, seed: 1000, heartbeat: fastBeat, http: true}).srvs
	c := dialNode(t, srvs[0], "cli")
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	const invented = 1000
	for i := 0; i < invented; i++ {
		if _, err := c.do(Request{Op: fmt.Sprintf("op-%d", i)}, false); err == nil {
			t.Fatalf("invented op %d was served", i)
		}
	}
	resp, err := http.Get("http://" + srvs[0].HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var series []string
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "ec_requests_total{") {
			series = append(series, line)
		}
	}
	want := []string{`ec_requests_total{op="put"} 1`, fmt.Sprintf(`ec_requests_total{op="unknown"} %d`, invented)}
	if !slices.Equal(series, want) {
		t.Fatalf("%d request series, want %q; the first: %q", len(series), want, series[:min(3, len(series))])
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{ID: "x", Model: "gossip", Peers: map[string]string{"y": "127.0.0.1:1"}}); err == nil {
		t.Fatal("missing own id accepted")
	}
	if _, err := New(Config{ID: "x", Model: "strongest", Peers: map[string]string{"x": "127.0.0.1:1"}}); err == nil {
		t.Fatal("unknown model accepted")
	}
}
