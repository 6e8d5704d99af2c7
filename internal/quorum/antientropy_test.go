package quorum

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/lsm"
	"repro/internal/ring"
	"repro/internal/storage"
)

// divergedReplicas sets up a W=1 write whose replication to the laggard
// replicas is suppressed by a partition during the write, returning the
// key and the replica set.
func writeWithLaggards(t *testing.T, h *harness, key string) []string {
	t.Helper()
	prefs := h.nodes[0].PreferenceList(key)
	// Partition every preference replica except the first away from the
	// coordinator side during the write.
	var isolated []string
	for _, p := range prefs[1:] {
		isolated = append(isolated, p)
	}
	rest := []string{"client"}
	for _, n := range h.c.Nodes() {
		if !slices.Contains(isolated, n) && n != "client" {
			rest = append(rest, n)
		}
	}
	h.c.At(0, func() {
		h.c.Partition(rest, isolated)
		h.client.Put(h.env, prefs[0], key, []byte("v"), func(pr PutResult) {
			if pr.Err != nil {
				t.Errorf("W=1 write failed: %v", pr.Err)
			}
		})
	})
	h.c.At(500*time.Millisecond, func() { h.c.Heal() })
	return prefs
}

func TestWithoutAntiEntropyUnreadKeysStayDivergent(t *testing.T) {
	h := newHarness(t, 5, Config{N: 3, R: 1, W: 1}, 31)
	prefs := writeWithLaggards(t, h, "cold-key")
	h.c.Run(30 * time.Second)
	byID := map[string]*Node{}
	for _, n := range h.nodes {
		byID[n.id] = n
	}
	divergent := 0
	for _, rep := range prefs {
		if len(byID[rep].LocalValues("cold-key")) == 0 {
			divergent++
		}
	}
	if divergent == 0 {
		t.Fatal("no replica stayed divergent; the laggard setup is broken")
	}
}

func TestAntiEntropyConvergesUnreadKeys(t *testing.T) {
	h := newHarness(t, 5, Config{
		N: 3, R: 1, W: 1,
		AntiEntropy: true, AntiEntropyInterval: 200 * time.Millisecond,
	}, 31)
	prefs := writeWithLaggards(t, h, "cold-key")
	h.c.Run(30 * time.Second)
	byID := map[string]*Node{}
	for _, n := range h.nodes {
		byID[n.id] = n
	}
	for _, rep := range prefs {
		vals := byID[rep].LocalValues("cold-key")
		if len(vals) != 1 || string(vals[0]) != "v" {
			t.Fatalf("replica %s not converged by anti-entropy: %q", rep, vals)
		}
	}
	syncs := uint64(0)
	for _, n := range h.nodes {
		syncs += n.AESyncs
	}
	if syncs == 0 {
		t.Fatal("anti-entropy never completed a round")
	}
}

func TestAntiEntropyConvergesSiblingsBothWays(t *testing.T) {
	// Divergent concurrent siblings on different replicas must union via
	// the push-pull exchange, not just flow one way.
	h := newHarness(t, 5, Config{
		N: 3, R: 3, W: 3,
		AntiEntropy: true, AntiEntropyInterval: 100 * time.Millisecond,
	}, 33)
	c2 := NewClient("client2")
	h.c.AddNode("client2", c2)
	env2 := h.c.ClientEnv("client2")
	h.c.At(0, func() {
		h.client.PutBlind(h.env, h.anyNode(), "k", []byte("a"), nil)
		c2.PutBlind(env2, h.anyNode(), "k", []byte("b"), nil)
	})
	h.c.Run(10 * time.Second)
	prefs := h.nodes[0].PreferenceList("k")
	byID := map[string]*Node{}
	for _, n := range h.nodes {
		byID[n.id] = n
	}
	for _, rep := range prefs {
		vals := byID[rep].LocalValues("k")
		if len(vals) != 2 {
			t.Fatalf("replica %s has %d siblings, want both", rep, len(vals))
		}
	}
}

func TestAntiEntropyIgnoresKeysOutsidePreferenceList(t *testing.T) {
	// A malformed (or replayed) AE payload naming a key this node does
	// not replicate must not be stored.
	h := newHarness(t, 8, Config{N: 3, R: 1, W: 1, AntiEntropy: true}, 35)
	// Find a key and a node outside its preference list.
	key := ""
	var outsider *Node
	for i := 0; i < 100 && outsider == nil; i++ {
		k := fmt.Sprintf("probe-%d", i)
		prefs := h.nodes[0].PreferenceList(k)
		for _, n := range h.nodes {
			if !slices.Contains(prefs, n.id) {
				key = k
				outsider = n
				break
			}
		}
	}
	if outsider == nil {
		t.Fatal("could not find an outsider node")
	}
	evil := clock.SiblingEntry[record]{DVV: clock.NewDVV("attacker", nil), Value: record{Value: []byte("evil")}}
	batch := shipBatch{Stream: streamID{Kind: streamAE, N: 1}, Seq: 1,
		Entries: []aeEntry{{Key: key, Entries: []clock.SiblingEntry[record]{evil}}}}
	outsider.onShipBatch(sinkEnv{}, "attacker", batch)
	if len(outsider.LocalValues(key)) != 0 {
		t.Fatal("outsider stored a key it does not replicate")
	}
}

func TestAntiEntropyQuietWhenConverged(t *testing.T) {
	// After convergence, AE rounds must stop shipping entries (root
	// hashes match, so responders send nothing).
	h := newHarness(t, 3, Config{
		N: 3, R: 3, W: 3,
		AntiEntropy: true, AntiEntropyInterval: 100 * time.Millisecond,
	}, 37)
	h.c.At(0, func() {
		h.client.Put(h.env, h.anyNode(), "k", []byte("v"), nil)
	})
	h.c.Run(5 * time.Second)
	before := h.c.Stats().BytesDelivered
	h.c.Run(10 * time.Second)
	delta := h.c.Stats().BytesDelivered - before
	// Only aeReq root probes (one (index, hash) pair per round, ~300
	// rounds) should flow: no descent, no entry payloads.
	perRound := float64(delta) / 300.0
	if perRound > 30 {
		t.Fatalf("converged cluster still ships %.0f bytes/AE round; the descent or entries are leaking", perRound)
	}
}

// checkTreesSettled asserts that a's tree for b indexes every key a holds
// that the two replicate (so a can offer it to b), and that the two trees
// the pair keep for each other have the same leaves (so an exchange
// between them finds nothing to ship).
func checkTreesSettled(t *testing.T, a, b *Node) {
	t.Helper()
	ta := a.tree(b.id)
	for _, sh := range a.shards {
		for _, p := range sh.store.Scan("", "", 0) {
			prefs := a.PreferenceList(p.Key)
			if !slices.Contains(prefs, a.id) || !slices.Contains(prefs, b.id) {
				continue
			}
			if !slices.Contains(ta.AppendBucketKeys(nil, ta.Bucket(p.Key)), p.Key) {
				t.Errorf("%s stores %q, shared with %s, but its tree for %s lacks it", a.id, p.Key, b.id, b.id)
			}
		}
	}
	la, lb := ta.LevelHashes(ta.Depth()), b.tree(a.id).LevelHashes(ta.Depth())
	var differ []int
	for i := range la {
		if la[i] != lb[i] {
			differ = append(differ, i)
		}
	}
	if len(differ) > 0 {
		t.Errorf("%s and %s disagree on buckets %v of the trees they keep for each other", a.id, b.id, differ)
	}
}

func TestAntiEntropyTreesCoverStoredKeysAfterLSMRestart(t *testing.T) {
	// A node restarting over a disk-resident engine finds every sibling
	// set already in its SSTables, so checkpoint restore and WAL replay
	// install nothing new. Its per-peer trees must be rebuilt all the same,
	// or it can never offer those keys to a peer that lost them.
	dir := t.TempDir()
	open := func(id string) storage.Engine {
		eng, err := lsm.Open(lsm.Options{Dir: filepath.Join(dir, id)})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	var journal [][]byte // s1's records
	cfgFor := func(id string) Config {
		eng := open(id)
		cfg := Config{N: 3, R: 2, W: 3, AntiEntropy: true, AntiEntropyInterval: 100 * time.Millisecond,
			Storage: func(int) storage.Engine { return eng }}
		if id == "s1" {
			cfg.PersistAt = func(_ int, rec []byte) { journal = append(journal, append([]byte(nil), rec...)) }
		}
		return cfg
	}
	h := newHarnessWith(t, 3, 41, cfgFor)
	const nKeys = 30
	h.c.At(0, func() {
		for i := 0; i < nKeys; i++ {
			h.client.Put(h.env, h.anyNode(), fmt.Sprintf("k-%d", i), []byte("v"), nil)
		}
	})
	h.c.Run(5 * time.Second)
	old := h.nodes[1]
	// The checkpoint covers the first half of the journal, replay the rest.
	state := checkpointBytes(old)
	if len(journal) < nKeys {
		t.Fatalf("s1 journaled %d records for %d keys", len(journal), nKeys)
	}
	if err := old.Close(); err != nil { // flushes the memtable
		t.Fatal(err)
	}

	cfg := cfgFor("s1")
	cfg.Ring = []string{"s0", "s1", "s2"}
	cfg.PersistAt = func(int, []byte) { t.Error("recovery re-journaled a record") }
	s1 := NewNode("s1", cfg)
	defer s1.Close()
	if err := s1.CheckStoredFormat(); err != nil {
		t.Fatal(err)
	}
	if err := s1.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	for _, rec := range journal[len(journal)/2:] {
		if err := s1.ReplayRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	for _, peer := range []*Node{h.nodes[0], h.nodes[2]} {
		defer peer.Close()
		checkTreesSettled(t, s1, peer)
		checkTreesSettled(t, peer, s1)
	}
}

func TestAntiEntropyQuiescesAfterNodeJoins(t *testing.T) {
	// s3 joins a three-node ring and catches up on the keys it now
	// replicates. The old owners' trees for s3 start empty: they fill from
	// s3's anti-entropy pushes, every one a duplicate install. Once they
	// have, the exchanges must stop shipping entries.
	h := newHarness(t, 4, Config{
		N: 3, R: 2, W: 3,
		AntiEntropy: true, AntiEntropyInterval: 100 * time.Millisecond,
	}, 43)
	old, all := []string{"s0", "s1", "s2"}, []string{"s0", "s1", "s2", "s3"}
	for _, n := range h.nodes {
		n.Install(ring.Epoch{Ring: ring.New(old, 1)})
	}
	const nKeys = 40
	h.c.At(0, func() {
		for i := 0; i < nKeys; i++ {
			h.client.Put(h.env, "s0", fmt.Sprintf("k-%d", i), []byte("v"), nil)
		}
	})
	h.c.Run(5 * time.Second)
	s0, s3 := h.nodes[0], h.nodes[3]
	joined := 0
	h.c.After(0, func() {
		for _, n := range h.nodes {
			n.Install(ring.Epoch{Seq: 1, Ring: ring.New(all, 1)})
		}
		// What the transfer stream does for the arcs s3 gained.
		for i := 0; i < nKeys; i++ {
			key := fmt.Sprintf("k-%d", i)
			if !slices.Contains(s3.PreferenceList(key), "s3") {
				continue
			}
			joined++
			for _, e := range s0.localEntries(key) {
				s3.installEntry(0, key, e)
			}
		}
	})
	h.c.Run(h.c.Now() + 20*time.Second)
	if joined == 0 || joined == nKeys {
		t.Fatalf("s3 replicates %d of %d keys; the placement makes this test vacuous", joined, nKeys)
	}
	for _, a := range h.nodes {
		for _, b := range h.nodes {
			if a != b {
				checkTreesSettled(t, a, b)
			}
		}
	}
	syncs := func() (total uint64) {
		for _, n := range h.nodes {
			total += n.AESyncs
		}
		return total
	}
	before := syncs()
	h.c.Run(h.c.Now() + 10*time.Second)
	if after := syncs(); after != before {
		t.Fatalf("converged cluster still ran %d entry exchanges in 10s", after-before)
	}
}
