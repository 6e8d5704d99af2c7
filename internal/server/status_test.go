package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/quorum"
)

// A quorum node's elasticity states, as a Status reports them.
const (
	stateOK       = quorum.StateOK
	stateDraining = quorum.StateDraining
	stateLeft     = quorum.StateLeft
)

// requestCounter names the counter of requests for the op named name.
func requestCounter(name string) string {
	if o, ok := ops[name]; ok {
		return o.counter
	}
	return "server.requests.unknown"
}

// httpGet returns the body s serves at path.
func httpGet(t *testing.T, s *Server, path string) []byte {
	t.Helper()
	resp, err := http.Get("http://" + s.HTTPAddr() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// Every surface reports the one Status: the status op's document is what
// /healthz serves, and /metrics' ring and peer series read its figures.
// Uptime and the peers' phi and round trips move between two reads, and
// are not compared; a verdict or a zone's lag that moves meanwhile makes
// the surfaces read again, until they agree.
func TestEverySurfaceReportsOneStatus(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec spec
	}{
		{"gossip", spec{model: "gossip", seed: 1000, heartbeat: fastBeat, http: true}},
		{"session", spec{model: "session", seed: 1000, heartbeat: fastBeat, http: true}},
		{"quorum-durable", spec{seed: 2000, heartbeat: fastBeat, http: true, durable: true, ckpt: -1}},
		{"quorum-zoned", spec{seed: 4000, http: true, zones: []string{"us", "eu", "ap"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := bootCluster(t, tc.spec).srvs[0]
			c := dialNode(t, s, "cli")
			if err := c.Put("k", []byte("v")); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
				diff := surfacesDiffer(t, s, c, tc.name)
				if diff == "" {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal(diff)
				}
			}
		})
	}
}

// surfacesDiffer reads s's status op, /healthz and /metrics, and says
// how they disagree ("" when they do not). name is the model, and
// "quorum-zoned" a zoned quorum node.
func surfacesDiffer(t *testing.T, s *Server, c *Client, name string) string {
	doc, _, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	var healthz Status
	if err := json.Unmarshal(httpGet(t, s, "/healthz"), &healthz); err != nil {
		t.Fatal(err)
	}
	metrics := map[string]string{}
	for _, line := range strings.Split(string(httpGet(t, s, "/metrics")), "\n") {
		if series, v, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			metrics[series] = v
		}
	}

	if doc.ID != "node0" || doc.Model != strings.Split(name, "-")[0] || len(doc.Members) != 3 || len(doc.Peers) != 2 {
		t.Fatalf("status document %+v", doc)
	}
	if _, geo := metrics["ec_geo_queue_depth"]; geo != (name == "quorum-zoned") {
		t.Fatalf("a %s node exports the geo series: %v", name, geo)
	}
	for _, st := range []*Status{&doc, &healthz} {
		st.Uptime = ""
		for i := range st.Peers {
			st.Peers[i].Phi, st.Peers[i].RTTp50Ms, st.Peers[i].RTTp99Ms = 0, 0, 0
		}
	}
	if !reflect.DeepEqual(doc, healthz) {
		return fmt.Sprintf("the status op reports\n%+v\n/healthz reports\n%+v", doc, healthz)
	}

	want := map[string]string{}
	if doc.State != "" {
		ok := 0
		if doc.OK {
			ok = 1
		}
		want["ec_ring_epoch"] = strconv.FormatUint(doc.Epoch, 10)
		want["ec_ring_ok"] = strconv.Itoa(ok)
		want["ec_transfer_ranges_pending"] = strconv.Itoa(doc.TransferTotal - doc.TransferDone)
	} else {
		for _, series := range []string{"ec_ring_epoch", "ec_ring_ok", "ec_transfer_ranges_pending"} {
			if v, ok := metrics[series]; ok {
				t.Fatalf("a %s node exports %s %s", name, series, v)
			}
		}
	}
	for _, p := range doc.Peers {
		suspect := "0"
		if p.Suspect {
			suspect = "1"
		}
		want[fmt.Sprintf("ec_peer_suspect{peer=%q}", p.ID)] = suspect
	}
	for series, v := range want {
		if metrics[series] != v {
			return fmt.Sprintf("/metrics: %s = %q, the status document says %s", series, metrics[series], v)
		}
	}
	return ""
}

// A gossip or session node refuses each setting only a quorum node reads,
// with the message that names it, where it once booted and ignored it.
// Shards, N, R and W it accepts, as every benchmark workload sets them.
func TestQuorumOnlySettingsRefusedElsewhere(t *testing.T) {
	refused := map[string]func(*Config){
		"Joining":       func(c *Config) { c.Joining = true },
		"GeoAsync":      func(c *Config) { c.GeoAsync = true },
		`Engine "lsm"`:  func(c *Config) { c.Engine, c.DataDir = "lsm", t.TempDir() },
		"TransferRate":  func(c *Config) { c.TransferRate = 1 << 20 },
		"TransferBatch": func(c *Config) { c.TransferBatch = 1 << 16 },
	}
	for _, model := range []string{"gossip", "session"} {
		peers := map[string]string{"node0": "127.0.0.1:0", "node1": "127.0.0.1:1"}
		for name, set := range refused {
			cfg := Config{ID: "node0", Model: model, Peers: peers}
			set(&cfg)
			s, err := New(cfg)
			if err == nil {
				s.Close()
			}
			if want := fmt.Sprintf("server: %s requires the quorum model, not %q", name, model); err == nil || err.Error() != want {
				t.Errorf("%s node with %s: error %v, want %q", model, name, err, want)
			}
		}
		s, err := New(Config{ID: "node0", Model: model, Peers: peers, Shards: 2, N: 3, R: 2, W: 2})
		if err != nil {
			t.Fatalf("%s node with Shards, N, R and W: %v", model, err)
		}
		s.Close()
	}
}
