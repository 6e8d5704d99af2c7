package quorum

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/ring"
)

func entryForTest() clock.SiblingEntry[record] {
	var e clock.SiblingEntry[record]
	e.DVV.Dot.Node = "a"
	e.DVV.Dot.Counter = 1
	e.Value.Value = []byte("v")
	return e
}

// geoHarness is a 3-zone cluster: nodes s0..s(n-1) round-robin over
// us/eu/ap, every node holding an epoch whose ring names the zones. The
// nodes place by member list: with 9 nodes the modulo preference list
// always spans all 3 zones, so GeoAsync splits every write into one
// local replica plus two cross-zone streams.
type geoHarness struct {
	*harness
	zones map[string]string
	byID  map[string]*Node
}

func newGeoHarness(t *testing.T, nNodes int, cfg Config, seed int64) *geoHarness {
	t.Helper()
	zoneNames := []string{"us", "eu", "ap"}
	zones := make(map[string]string, nNodes)
	for i := 0; i < nNodes; i++ {
		zones[fmt.Sprintf("s%d", i)] = zoneNames[i%3]
	}
	base := cfg
	h := newHarnessWith(t, nNodes, seed, func(id string) Config {
		c := base
		c.Zone = zones[id]
		return c
	})
	g := &geoHarness{harness: h, zones: zones, byID: map[string]*Node{}}
	ids := make([]string, 0, nNodes)
	for _, n := range h.nodes {
		ids = append(ids, n.id)
	}
	zoned := ring.NewZoned(ids, 1, zones)
	for _, n := range h.nodes {
		n.Install(ring.Epoch{Ring: zoned})
		g.byID[n.id] = n
	}
	return g
}

// zoneGroupWith returns the node ids sharing a zone with member, plus
// the extra ids (clients) that should stay on its side of a partition.
func (g *geoHarness) zoneGroupWith(member string, extra ...string) (same, others []string) {
	z := g.zones[member]
	for _, n := range g.nodes {
		if g.zones[n.id] == z {
			same = append(same, n.id)
		} else {
			others = append(others, n.id)
		}
	}
	same = append(same, extra...)
	return same, others
}

// A GeoAsync write must acknowledge on the intra-zone sub-quorum even
// when every other zone is unreachable — and once the partition heals,
// the retained replicator stream must deliver the acked write to every
// cross-zone replica. Zero lost acked writes under a cross-zone
// partition nemesis.
func TestGeoAsyncWriteAcksInPartitionedZone(t *testing.T) {
	h := newGeoHarness(t, 9, Config{N: 3, R: 1, W: 3, GeoAsync: true}, 41)
	key := "geo-key"
	prefs := h.nodes[0].PreferenceList(key)
	coord := prefs[0]
	local, remote := h.zoneGroupWith(coord, "client")

	acked := false
	h.c.At(0, func() {
		h.c.Partition(local, remote)
		h.client.Put(h.env, coord, key, []byte("v"), func(pr PutResult) {
			if pr.Err != nil {
				t.Errorf("GeoAsync write failed under cross-zone partition: %v", pr.Err)
			}
			acked = true
		})
	})
	// While partitioned, the cross-zone replicas must not have the write
	// and the coordinator must be retaining it.
	h.c.At(2*time.Second, func() {
		if !acked {
			t.Error("write not acked on the intra-zone sub-quorum")
		}
		for _, rep := range prefs[1:] {
			if len(h.byID[rep].LocalValues(key)) != 0 {
				t.Errorf("replica %s received the write through a partition", rep)
			}
		}
		if total, _ := h.byID[coord].GeoQueue(); total == 0 {
			t.Error("coordinator retains no cross-zone backlog during partition")
		}
		h.c.Heal()
	})
	h.c.Run(15 * time.Second)

	for _, rep := range prefs {
		vals := h.byID[rep].LocalValues(key)
		if len(vals) != 1 || string(vals[0]) != "v" {
			t.Fatalf("replica %s after heal: %q, want the acked write", rep, vals)
		}
	}
	if total, byPeer := h.byID[coord].GeoQueue(); total != 0 {
		t.Fatalf("coordinator backlog not drained after heal: %v", byPeer)
	}
	if h.byID[coord].GeoResends == 0 {
		t.Fatal("partition healed without any replicator resend")
	}
}

// Steady-state geo replication: every write drains to the cross-zone
// replicas, the acked counters balance the shipped ones, and every node
// ends up with a measured (finite, recent) staleness figure for each
// remote zone — beacons cover the zones a node never receives data from.
func TestGeoReplicationDrainsAndMeasuresStaleness(t *testing.T) {
	h := newGeoHarness(t, 9, Config{N: 3, R: 1, W: 3, GeoAsync: true}, 42)
	var keys []string
	for i := 0; i < 20; i++ {
		keys = append(keys, fmt.Sprintf("k%d", i))
	}
	h.c.At(0, func() {
		for _, k := range keys {
			k := k
			h.client.Put(h.env, h.anyNode(), k, []byte("v-"+k), func(pr PutResult) {
				if pr.Err != nil {
					t.Errorf("put %s: %v", k, pr.Err)
				}
			})
		}
	})
	h.c.Run(10 * time.Second)

	for _, k := range keys {
		for _, rep := range h.nodes[0].PreferenceList(k) {
			vals := h.byID[rep].LocalValues(k)
			if len(vals) != 1 || string(vals[0]) != "v-"+k {
				t.Fatalf("replica %s of %s: %q", rep, k, vals)
			}
		}
	}
	var shipped, ackedN uint64
	for _, n := range h.nodes {
		if total, byPeer := n.GeoQueue(); total != 0 {
			t.Fatalf("%s retains %v after quiesce", n.id, byPeer)
		}
		shipped += n.GeoShipped
		ackedN += n.GeoAcked
	}
	if shipped == 0 {
		t.Fatal("no cross-zone entries were shipped")
	}
	if ackedN != shipped {
		t.Fatalf("shipped %d cross-zone entries but %d acked", shipped, ackedN)
	}
	// Every node must have heard a high-water mark from both remote
	// zones (data or beacon), and the wall-clock staleness must be sane.
	for _, n := range h.nodes {
		st := n.GeoStaleness()
		for z := range map[string]bool{"us": true, "eu": true, "ap": true} {
			if z == h.zones[n.id] {
				continue
			}
			ms, ok := st[z]
			if !ok {
				t.Fatalf("%s has no staleness measurement for zone %s: %v", n.id, z, st)
			}
			if ms < 0 || ms > 60_000 {
				t.Fatalf("%s staleness for %s = %dms, implausible", n.id, z, ms)
			}
		}
		if n.GeoBeacons == 0 {
			t.Fatalf("%s sent no idle beacons", n.id)
		}
	}
}

// The per-request read-quorum override is the eventual tier's lever: an
// R=1 read completes inside a partitioned zone where the configured
// R=3 read cannot reach a quorum.
func TestGetROverrideReadsInsidePartitionedZone(t *testing.T) {
	h := newGeoHarness(t, 9, Config{N: 3, R: 3, W: 3}, 43)
	key := "sla-key"
	prefs := h.nodes[0].PreferenceList(key)
	coord := prefs[0]
	local, remote := h.zoneGroupWith(coord, "client")

	var eventual, strong GetResult
	eventualDone, strongDone := false, false
	h.c.At(0, func() {
		h.client.Put(h.env, coord, key, []byte("v"), func(pr PutResult) {
			if pr.Err != nil {
				t.Errorf("seed write: %v", pr.Err)
			}
		})
	})
	h.c.At(time.Second, func() {
		h.c.Partition(local, remote)
		h.client.GetR(h.env, coord, key, 1, func(gr GetResult) { eventual = gr; eventualDone = true })
		h.client.Get(h.env, coord, key, func(gr GetResult) { strong = gr; strongDone = true })
	})
	h.c.Run(10 * time.Second)

	if !eventualDone {
		t.Fatal("R=1 read never completed")
	}
	if eventual.Err != nil || len(eventual.Values) != 1 || string(eventual.Values[0]) != "v" {
		t.Fatalf("R=1 read inside partitioned zone: %+v", eventual)
	}
	if !strongDone {
		t.Fatal("R=3 read never resolved")
	}
	if strong.Err == nil {
		t.Fatal("R=3 read succeeded across a partition that isolates two replicas")
	}
}

// Replayed geo cursors keep sequence numbering monotone: a journaled
// ack restores the acked watermark, and a fresh enqueue numbers after
// it rather than reusing acked sequences.
func TestGeoAckJournalRoundTrip(t *testing.T) {
	cfg := Config{N: 3, R: 1, W: 1, Ring: []string{"a", "b", "c"},
		Zone: "us", GeoAsync: true}
	var journal [][]byte
	cfg.PersistAt = func(_ int, rec []byte) { journal = append(journal, append([]byte(nil), rec...)) }
	n := NewNode("a", cfg)
	n.geoRestoreAck("b", 7)
	n.persistRecord(0, walRecord{GeoAck: &geoAckRec{Peer: "b", Seq: 7}})

	n2 := NewNode("a", cfg)
	for _, rec := range journal {
		if err := n2.ReplayRecord(rec); err != nil {
			t.Fatalf("replay: %v", err)
		}
	}
	n2.geoMu.Lock()
	ackedSeq := n2.geoPeers["b"].acked
	n2.geoMu.Unlock()
	if ackedSeq != 7 {
		t.Fatalf("replayed acked cursor = %d, want 7", ackedSeq)
	}
	// The next entry b acknowledges is numbered after the replayed cursor.
	n2.geoEnqueue("b", "k", entryForTest())
	src := n2.geoSource("b")
	src.acked(sinkEnv{}, src.next(1<<20).Entries)
	last, err := decodeRecord(journal[len(journal)-1])
	if err != nil || last.GeoAck == nil || *last.GeoAck != (geoAckRec{Peer: "b", Seq: 8}) {
		t.Fatalf("post-replay ack journaled %+v (%v), want geoAck{b 8}", last.GeoAck, err)
	}
	if total, _ := n2.GeoQueue(); total != 0 {
		t.Fatalf("acknowledged entry still queued: %d", total)
	}
}
