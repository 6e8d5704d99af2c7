package quorum

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Tests of the one sender and the one receiver of stream.go, once, instead
// of once per feature that ships through them; then the bounds and the
// defects the features had when each shipped its own way.

// streamRig is a three-node cluster in which s0 ships a fixed set of keys
// to s1 over one stream of a kind that has no hooks of its own, so that
// what the tests see is the sender and the receiver and nothing else.
type streamRig struct {
	*harness
	src, dst *Node
	keys     []string
	id       streamID
	batches  []uint64 // Seq of each batch delivered to dst, in order
	acks     []uint64 // Seq of each ack delivered to src
	lastAck  time.Duration
	acked    int // entries the source was told are installed
	journal  int // entry records dst journaled
	onBatch  func(m shipBatch)
	onAck    func(m shipAck)
}

const rigTimeout = 100 * time.Millisecond

func newStreamRig(t *testing.T, nKeys int) *streamRig {
	r := &streamRig{}
	r.harness = newHarnessPerNode(t, 3, 7, sim.Fixed(2*time.Millisecond), func(id string) Config {
		cfg := Config{N: 3, R: 1, W: 1, Timeout: rigTimeout, TransferBatch: 300}
		if id == "s1" {
			cfg.PersistAt = func(int, []byte) { r.journal++ }
		}
		return cfg
	})
	r.src, r.dst = r.node("s0"), r.node("s1")
	held := map[string][]clock.SiblingEntry[record]{}
	for i := 0; i < nKeys; i++ {
		key := fmt.Sprintf("k%02d", i)
		r.keys = append(r.keys, key)
		held[key] = []clock.SiblingEntry[record]{seedEntry(i, 100)}
	}
	r.onDeliver = func(msg sim.Message) {
		switch m := msg.(type) {
		case shipBatch:
			r.batches = append(r.batches, m.Seq)
			if r.onBatch != nil {
				r.onBatch(m)
			}
		case shipAck:
			r.acks, r.lastAck = append(r.acks, m.Seq), r.c.Now()
			if r.onAck != nil {
				r.onAck(m)
			}
		}
	}
	r.id = streamID{Kind: streamHints, N: r.src.mintStream()}
	r.c.At(0, func() {
		r.src.openStream(r.c.ClientEnv("s0"), "s1", r.id, 0, source{
			next:  shipKeys(slices.Clone(r.keys), func(key string) []clock.SiblingEntry[record] { return held[key] }),
			acked: func(_ transport.Env, es []aeEntry) { r.acked += len(es) },
		})
	})
	return r
}

// settled fails unless every key reached dst and was journaled there once,
// the source was told so once per key, and the stream is closed.
func (r *streamRig) settled(t *testing.T) {
	t.Helper()
	for _, key := range r.keys {
		if vals := r.dst.LocalValues(key); len(vals) != 1 {
			t.Errorf("%s holds %d values of %s, want 1", r.dst.id, len(vals), key)
		}
	}
	if r.journal != len(r.keys) {
		t.Errorf("%s journaled %d installs for %d keys", r.dst.id, r.journal, len(r.keys))
	}
	if r.acked != len(r.keys) {
		t.Errorf("the source was told of %d installed entries, shipped %d", r.acked, len(r.keys))
	}
	if len(r.src.out) != 0 {
		t.Errorf("%d streams still open", len(r.src.out))
	}
}

func TestStreamFaults(t *testing.T) {
	// 12 keys of ~130 encoded bytes against a 300-byte budget: 4 batches of
	// 3 keys, sequence numbers 1 to 4.
	want := []uint64{1, 2, 3, 4}
	cases := []struct {
		name  string
		fault func(r *streamRig)
		check func(t *testing.T, r *streamRig)
	}{
		{"no fault", func(*streamRig) {}, func(t *testing.T, r *streamRig) {
			if !slices.Equal(r.batches, want) || !slices.Equal(r.acks, want) {
				t.Errorf("batches %v acks %v, want %v each", r.batches, r.acks, want)
			}
			// Four round trips of 4ms, no timer in between.
			if r.lastAck != 16*time.Millisecond {
				t.Errorf("the last ack arrived at %v: the stream did not run at ack speed", r.lastAck)
			}
		}},
		{"lost batch", func(r *streamRig) {
			r.c.BlockLink("s0", "s1")
			r.c.At(rigTimeout/2, func() { r.c.UnblockLink("s0", "s1") })
		}, func(t *testing.T, r *streamRig) {
			// Resent under the number it was lost under, installed once.
			if !slices.Equal(r.batches, want) {
				t.Errorf("batches delivered %v, want %v", r.batches, want)
			}
		}},
		{"lost ack", func(r *streamRig) {
			r.c.BlockLink("s1", "s0")
			r.c.At(rigTimeout/2, func() { r.c.UnblockLink("s1", "s0") })
		}, func(t *testing.T, r *streamRig) {
			if !slices.Equal(r.batches, []uint64{1, 1, 2, 3, 4}) {
				t.Errorf("batches delivered %v, want the first one twice", r.batches)
			}
		}},
		{"duplicated ack", func(r *streamRig) {
			r.onAck = func(m shipAck) {
				if n := len(r.acks); n < 2 || r.acks[n-2] != m.Seq {
					r.c.Send("s1", "s0", m) // every ack arrives twice
				}
			}
		}, func(t *testing.T, r *streamRig) {
			if !slices.Equal(r.batches, want) {
				t.Errorf("batches delivered %v, want %v: a repeated ack moved the stream", r.batches, want)
			}
		}},
		{"ack for a superseded seq, a later seq, another stream", func(r *streamRig) {
			r.onBatch = func(m shipBatch) {
				if m.Seq == 3 {
					r.c.Send("s1", "s0", shipAck{Stream: r.id, Seq: 1})
					r.c.Send("s1", "s0", shipAck{Stream: r.id, Seq: 4})
					r.c.Send("s1", "s0", shipAck{Stream: streamID{Kind: r.id.Kind, N: r.id.N - 1}, Seq: 3})
					r.c.Send("s2", "s0", shipAck{Stream: r.id, Seq: 3})
				}
			}
		}, func(t *testing.T, r *streamRig) {
			if !slices.Equal(r.batches, want) {
				t.Errorf("batches delivered %v, want %v", r.batches, want)
			}
		}},
		{"a batch after done", func(r *streamRig) {
			var last shipBatch
			r.onBatch = func(m shipBatch) { last = m }
			r.c.At(time.Second, func() {
				if !last.Done {
					panic("the stream had not finished")
				}
				r.onBatch = nil
				r.c.Send("s0", "s1", last)
				last.Seq++
				r.c.Send("s0", "s1", last)
			})
		}, func(t *testing.T, r *streamRig) {
			// Installed again (a no-op) and acknowledged; the sender has no
			// stream for the acks to find.
			if !slices.Equal(r.acks, []uint64{1, 2, 3, 4, 4, 5}) {
				t.Errorf("acks delivered %v: a batch after done must still be answered", r.acks)
			}
		}},
		{"crash and OnStart with a batch in flight", func(r *streamRig) {
			// The batch is lost and so, with the crash, is its timer.
			r.c.BlockLink("s0", "s1")
			r.c.At(time.Millisecond, func() { r.c.Crash("s0") })
			r.c.At(2*rigTimeout, func() {
				if len(r.batches) != 0 {
					panic("a batch got through")
				}
				r.c.UnblockLink("s0", "s1")
				r.c.Restart("s0")
			})
		}, func(t *testing.T, r *streamRig) {
			if !slices.Equal(r.batches, want) {
				t.Errorf("batches delivered %v, want %v", r.batches, want)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newStreamRig(t, 12)
			tc.fault(r)
			r.c.Run(5 * time.Second)
			r.settled(t)
			tc.check(t, r)
		})
	}
}

func TestStreamToRemovedPeerIsDropped(t *testing.T) {
	r := newStreamRig(t, 12)
	r.onBatch = func(m shipBatch) {
		if m.Seq == 2 {
			r.src.Install(ring.Epoch{Seq: 1, Ring: ring.New([]string{"s0", "s2"}, 1)})
		}
	}
	r.c.Run(5 * time.Second)
	// Batch 2 was in flight when s1 left: its ack finds no stream, its
	// resend timer lapses, nothing more is built or sent.
	if !slices.Equal(r.batches, []uint64{1, 2}) {
		t.Errorf("batches delivered %v, want [1 2]", r.batches)
	}
	if len(r.src.out) != 0 || r.acked != 3 {
		t.Errorf("%d streams open, %d entries acknowledged; want 0 and 3", len(r.src.out), r.acked)
	}
}

// encodedSize is what a message costs a frame.
func encodedSize(msg sim.Message) int {
	if m, ok := msg.(transport.BinaryMessage); ok {
		return len(m.AppendBinary(nil))
	}
	return 0
}

func TestWipedReplicaConvergesInBoundedFrames(t *testing.T) {
	// The benchmark's quorum_lsm_get dataset, every node a replica of every
	// key, and one replica come back empty: anti-entropy has 17 MB to give
	// it back, which as one frame is more than the TCP transport carries.
	const nKeys, valueSize, budget = 4200, 4096, 64 << 10
	h := newHarness(t, 3, Config{N: 3, R: 1, W: 1, AntiEntropy: true}, 11)
	for i := 0; i < nKeys; i++ {
		key, e := fmt.Sprintf("key-%05d", i), seedEntry(i, valueSize)
		h.nodes[0].installEntry(0, key, e)
		h.nodes[1].installEntry(0, key, e)
	}
	largest := 0
	h.onDeliver = func(msg sim.Message) { largest = max(largest, encodedSize(msg)) }
	h.c.Run(30 * time.Second)
	for i := 0; i < nKeys; i++ {
		if key := fmt.Sprintf("key-%05d", i); len(h.nodes[2].LocalValues(key)) != 1 {
			t.Fatalf("the wiped replica never got %s back", key)
		}
	}
	if oneKey := valueSize + 64; largest > budget+oneKey {
		t.Fatalf("a %d-byte message crossed the wire; the bound is the %d-byte budget plus one key's entries", largest, budget)
	}
	if largest < budget {
		t.Fatalf("largest message %d bytes: the batches are not being filled to the budget", largest)
	}
	for _, n := range h.nodes {
		if len(n.out) != 0 {
			t.Errorf("%s still has %d streams open", n.id, len(n.out))
		}
	}
}

func TestHintBacklogToPartitionedPeer(t *testing.T) {
	// 200 hints for a peer that cannot be reached cost one batch per
	// Timeout, not one message per hint per HandoffInterval; when the peer
	// is back they arrive in frames of the budget's size.
	const nHints, valueSize, budget = 200, 1024, 16 << 10
	h := newHarness(t, 3, Config{N: 3, R: 1, W: 1, SloppyQuorum: true, TransferBatch: budget}, 13)
	holder, victim := h.nodes[0], h.nodes[1]
	for i := 0; i < nHints; i++ {
		holder.storeHint(victim.id, fmt.Sprintf("key-%03d", i), seedEntry(i, valueSize))
	}
	largest := 0
	h.onDeliver = func(msg sim.Message) { largest = max(largest, encodedSize(msg)) }
	h.c.At(0, func() { h.c.Partition([]string{"s0", "s2", "client"}, []string{"s1"}) })
	h.c.Run(10 * time.Second)
	timeout := holder.cfg.Timeout
	if sent, limit := h.c.Stats().MessagesSent, uint64(10*time.Second/timeout+1); sent > limit {
		t.Fatalf("%d sends to an unreachable peer in 10s, want at most %d (one per %v)", sent, limit, timeout)
	}
	if got := holder.PendingHints(); got != nHints {
		t.Fatalf("%d hints queued while the peer is away, want all %d", got, nHints)
	}
	h.c.After(0, func() { h.c.Heal() })
	healed := h.c.Now()
	h.c.Run(healed + 2*time.Second)
	for i := 0; i < nHints; i++ {
		if key := fmt.Sprintf("key-%03d", i); len(victim.LocalValues(key)) != 1 {
			t.Fatalf("hint for %s never reached %s", key, victim.id)
		}
	}
	if got := holder.PendingHints(); got != 0 {
		t.Fatalf("%d hints still queued", got)
	}
	if oneKey := valueSize + 64; largest > budget+oneKey || largest < budget {
		t.Fatalf("largest message %d bytes, want between the %d-byte budget and one key more", largest, budget)
	}
}

func TestHintStoredBetweenBatchAndAckSurvives(t *testing.T) {
	// With every message taking 2ms, the first handoff tick at 100ms puts
	// the hint for k on the wire, s1 has it at 102ms and s0 the
	// acknowledgement at 104ms. A second hint for k stored at 103ms was
	// not in what s1 acknowledged.
	h := newHarnessLatency(t, 3, Config{
		N: 3, R: 1, W: 1, SloppyQuorum: true, HandoffInterval: 100 * time.Millisecond,
	}, 17, sim.Fixed(2*time.Millisecond))
	holder, intended := h.nodes[0], h.nodes[1]
	holder.storeHint(intended.id, "k", entryAt("a", 1, nil, "first"))
	h.c.At(103*time.Millisecond, func() {
		holder.storeHint(intended.id, "k", entryAt("b", 1, nil, "second"))
	})
	h.c.Run(150 * time.Millisecond)
	if got := holder.PendingHints(); got != 1 {
		t.Fatalf("after the first ack %d hints are queued, want the second one", got)
	}
	h.c.Run(time.Second)
	if vals := intended.LocalValues("k"); len(vals) != 2 {
		t.Fatalf("%s holds %q, want both versions", intended.id, vals)
	}
	if got := holder.PendingHints(); got != 0 {
		t.Fatalf("%d hints queued after both were acknowledged", got)
	}
}

func TestGeoBatchIsBoundedInBytes(t *testing.T) {
	// 100 writes of 1 KiB queued for a zone that is away, then shipped: the
	// frames are cut by the byte budget, where 128 entries to a frame would
	// have made one of 100 KiB.
	const budget = 8 << 10
	h := newGeoHarness(t, 9, Config{N: 3, R: 1, W: 3, GeoAsync: true, TransferBatch: budget}, 45)
	coord := h.nodes[0].PreferenceList("geo-0")[0]
	local, remote := h.zoneGroupWith(coord, "client")
	largest, value := 0, make([]byte, 1024)
	h.onDeliver = func(msg sim.Message) {
		if m, ok := msg.(shipBatch); ok {
			largest = max(largest, encodedSize(m))
		}
	}
	h.c.At(0, func() {
		h.c.Partition(local, remote)
		for i := 0; i < 100; i++ {
			h.byID[coord].coordinatePut(h.c.ClientEnv(coord), "client", clientPut{ID: uint64(i + 1), Key: "geo-0", Value: value}, nil)
		}
	})
	h.c.At(time.Second, func() { h.c.Heal() })
	h.c.Run(10 * time.Second)
	if total, _ := h.byID[coord].GeoQueue(); total != 0 {
		t.Fatalf("%d entries still queued after the heal", total)
	}
	if largest < budget || largest > budget+1200 {
		t.Fatalf("largest geo batch %d bytes, want between the %d-byte budget and one entry more", largest, budget)
	}
}

// countingEngine counts the pairs its scans return.
type countingEngine struct {
	storage.Engine
	pairs *int
}

func (e countingEngine) Scan(lo, hi string, limit int) []storage.Pair {
	out := e.Engine.Scan(lo, hi, limit)
	*e.pairs += len(out)
	return out
}

func TestTransferSourceScansInWindows(t *testing.T) {
	// A quarter of 4,200 keys pulled in batches of 16 or so: what the
	// source's engines hand back while serving the range is bounded by what
	// they hold, where a scan of everything per batch returned 64 times it.
	const nKeys = 4200
	scanned := 0
	h := newHarnessWith(t, 2, 19, func(id string) Config {
		cfg := Config{N: 2, R: 1, W: 1, Shards: 4, TransferBatch: 1024}
		if id == "s0" {
			cfg.Storage = func(int) storage.Engine { return countingEngine{storage.NewKV(), &scanned} }
		}
		return cfg
	})
	src, dst := h.nodes[0], h.nodes[1]
	const start, end = 0, 1 << 62
	inArc := 0
	for i := 0; i < nKeys; i++ {
		key := fmt.Sprintf("key-%05d", i)
		src.installEntry(0, key, seedEntry(i, 40))
		if rangeContains(start, end, ring.KeyHash(key)) {
			inArc++
		}
	}
	batches := 0
	h.onDeliver = func(msg sim.Message) {
		if _, ok := msg.(shipBatch); ok {
			batches++
		}
	}
	h.c.At(0, func() {
		dst.beginCatchUp(h.c.ClientEnv("s1"), 1, []TransferPull{{Source: "s0", Start: start, End: end}})
	})
	h.c.Run(30 * time.Second)
	if done, total := dst.CatchUpProgress(1); done != total || total != 1 {
		t.Fatal("catch-up never completed")
	}
	got := 0
	for _, sh := range dst.shards {
		got += sh.store.Len()
	}
	if got != inArc || inArc < nKeys/8 {
		t.Fatalf("%d keys transferred, %d of %d are in the arc", got, inArc, nKeys)
	}
	if batches < 20 {
		t.Fatalf("the range went in %d batches: too few for the bound to mean anything", batches)
	}
	if scanned > 2*nKeys {
		t.Fatalf("the source's engines returned %d pairs to serve one range of a store of %d", scanned, nKeys)
	}
	t.Logf("%d keys in %d batches, %d pairs scanned of %d stored", got, batches, scanned, nKeys)
}

func TestTransferResumesAtCursorAfterSourceCrash(t *testing.T) {
	// The source dies mid-range and comes back without its streams, as a
	// restarted process does. The gainer's stall timer re-opens the range at
	// the last cursor it installed: the range completes, and what is pulled
	// twice is at most the batch that was in flight.
	const nKeys = 400
	h := newHarness(t, 2, Config{N: 2, R: 1, W: 1, Shards: 2, TransferBatch: 1024}, 23)
	src, dst := h.nodes[0], h.nodes[1]
	for i := 0; i < nKeys; i++ {
		src.installEntry(0, fmt.Sprintf("key-%05d", i), seedEntry(i, 40))
	}
	pulled := map[string]int{}
	batches, perBatch := 0, 0
	h.onDeliver = func(msg sim.Message) {
		m, ok := msg.(shipBatch)
		if !ok {
			return
		}
		batches++
		perBatch = max(perBatch, len(m.Entries))
		for _, e := range m.Entries {
			pulled[e.Key]++
		}
		if batches == 10 {
			h.c.Crash("s0")
			src.out = nil
			h.c.After(100*time.Millisecond, func() { h.c.Restart("s0") })
		}
	}
	h.c.At(0, func() {
		dst.beginCatchUp(h.c.ClientEnv("s1"), 1, []TransferPull{{Source: "s0", Start: 0, End: 0}})
	})
	h.c.Run(30 * time.Second)
	if done, total := dst.CatchUpProgress(1); done != total || total != 1 {
		t.Fatal("catch-up never completed after the source came back")
	}
	twice := 0
	for key, n := range pulled {
		if n > 2 {
			t.Fatalf("%s pulled %d times", key, n)
		}
		twice += n - 1
	}
	if len(pulled) != nKeys || twice > perBatch {
		t.Fatalf("%d of %d keys pulled, %d of them twice; a batch holds at most %d", len(pulled), nKeys, twice, perBatch)
	}
	if got := dst.Transfer.RangesDone.Load(); got != 1 {
		t.Fatalf("RangesDone = %d, want 1", got)
	}
}
