package quorum

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/wiretest"
)

// Codec pinning for every quorum wire type: the round trip through a
// frame must be exact (see internal/wiretest).

func genEntry(g *wiretest.Gen) clock.SiblingEntry[record] {
	return clock.SiblingEntry[record]{
		DVV:   g.DVV(),
		Value: record{Value: g.Bytes(), Deleted: g.Bool()},
	}
}

func genEntries(g *wiretest.Gen) []clock.SiblingEntry[record] {
	if g.R.Intn(4) == 0 {
		return nil
	}
	out := make([]clock.SiblingEntry[record], g.R.Intn(5))
	for i := range out {
		out[i] = genEntry(g)
	}
	return out
}

// genDots returns a digest answer's dots; an empty list decodes as nil.
func genDots(g *wiretest.Gen) []clock.Dot {
	n := g.R.Intn(5)
	if n == 0 {
		return nil
	}
	out := make([]clock.Dot, n)
	for i := range out {
		out[i] = g.DVV().Dot
	}
	return out
}

func genAEEntries(g *wiretest.Gen) []aeEntry {
	if g.R.Intn(4) == 0 {
		return nil
	}
	out := make([]aeEntry, g.R.Intn(5))
	for i := range out {
		out[i] = aeEntry{Key: g.Str(), Entries: genEntries(g)}
	}
	return out
}

func genMsgs(g *wiretest.Gen) []transport.Message {
	return []transport.Message{
		clientPut{ID: g.Uint64(), Key: g.Str(), Value: g.Bytes(), Deleted: g.Bool(), Context: g.Vector()},
		clientGet{ID: g.Uint64(), Key: g.Str(), R: int(g.Int64())},
		putResp{ID: g.Uint64(), Context: g.Vector(), Err: g.Str(), Sloppy: g.Bool()},
		getResp{ID: g.Uint64(), Values: g.ByteSlices(), Context: g.Vector(), Err: g.Str(), Replicas: int(g.Int64())},
		replicaPut{ID: g.Uint64(), Key: g.Str(), Entry: genEntry(g), Hint: g.Str(), Repair: g.Bool()},
		replicaPutAck{ID: g.Uint64()},
		replicaGet{ID: g.Uint64(), Key: g.Str()},
		replicaDigest{ID: g.Uint64(), Key: g.Str()},
		replicaGetResp{ID: g.Uint64(), Entries: genEntries(g)},
		replicaDigestResp{ID: g.Uint64(), Dots: genDots(g)},
		replicaNotReady{ID: g.Uint64()},
		shipBatch{
			Stream: genStreamID(g), Seq: g.Uint64(), Entries: genAEEntries(g),
			Cursor: g.Str(), Done: g.Bool(), Stamp: geoStamp{Zone: g.Str(), HighTS: g.Int64()},
		},
		shipAck{Stream: genStreamID(g), Seq: g.Uint64()},
		resPing{},
		resPong{},
		aeReq{Pairs: genPairs(g), Buckets: g.Ints()},
		aeResp{Buckets: g.Ints()},
		transferReq{Idx: int(g.Int64()), Stream: g.Uint64(), Start: g.Uint64(), End: g.Uint64(), Cursor: g.Str()},
		replicaNotOwner{ID: g.Uint64(), Seq: g.Uint64()},
		geoStamp{Zone: g.Str(), HighTS: g.Int64()},
	}
}

func genStreamID(g *wiretest.Gen) streamID {
	return streamID{Kind: streamKind(g.Byte()), N: g.Uint64()}
}

func genPairs(g *wiretest.Gen) []storage.HashPair {
	if g.R.Intn(4) == 0 {
		return nil
	}
	out := make([]storage.HashPair, g.R.Intn(5))
	for i := range out {
		out[i] = storage.HashPair{Idx: int(g.Int64()), Hash: g.Uint64()}
	}
	return out
}

func checkAll(t testing.TB, seed int64) {
	g := wiretest.NewGen(seed)
	for _, m := range genMsgs(g) {
		wiretest.Check(t, m)
		// The one size formula of a frame that carries entries is its
		// encoded size.
		if b, ok := m.(shipBatch); ok && b.Size() != len(b.AppendBinary(nil)) {
			t.Fatalf("seed %d: shipBatch.Size() = %d, encodes to %d bytes", seed, b.Size(), len(b.AppendBinary(nil)))
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 256; seed++ {
		checkAll(t, seed)
	}
}

func FuzzCodecRoundTrip(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkAll(t, seed) })
}

// TestPeerFrameSizes pins the frame of every envelope a benchmark
// operation sends between quorum peers, as a peer link writes it: neither
// end spelled out, and an answer does not echo its key. Each row gives
// the parent layout's size too. The digest rows changed with the digest
// layout: an ask lost its Digest byte, and an answer became its dots,
// without the context, the value marker, the tombstone bit and the
// NotReady and Digest bytes. The transport's heartbeat and its echo are
// pinned beside their type (transport.TestHeartbeatFrameSizes).
func TestPeerFrameSizes(t *testing.T) {
	link := transport.Link{Local: "node1", Remote: "node0"}
	const key = "k00000042" // the benchmark's key names
	dot := clock.Dot{Node: "node0#gw1", Counter: 1 << 14}
	ctx := clock.Vector{"node0#gw1": 1<<14 - 1}
	put := replicaPut{ID: 1 << 20, Key: key, Entry: clock.SiblingEntry[record]{
		DVV:   clock.DVV{Dot: dot, Context: ctx},
		Value: record{Value: make([]byte, 128)},
	}}
	// The digest answer a replica sends for a stored set with a context:
	// the context stays home, so the frame is the same as for a bare dot.
	n := NewNode("node1", Config{Ring: []string{"node0", "node1", "node2"}, N: 3, R: 2, W: 2})
	n.installEntry(0, key, put.Entry)
	env := &sentEnv{}
	n.answerDigest(env, "node0", replicaDigest{ID: 1 << 20, Key: key})
	if len(env.sent) != 1 {
		t.Fatalf("answerDigest sent %d messages, want 1", len(env.sent))
	}
	stored := env.sent[0].(transport.BinaryMessage)
	for _, tc := range []struct {
		name string
		msg  transport.BinaryMessage
		want int
	}{
		{"digest ask", replicaDigest{ID: 1 << 20, Key: key}, 15},                      // parent 16
		{"digest answer", replicaDigestResp{ID: 1 << 20, Dots: []clock.Dot{dot}}, 19}, // parent 24
		{"digest answer, stored set with a context", stored, 19},                      // parent 24
		{"replicaPut, 128 B value", put, 175},                                         // parent 175
		{"replicaPutAck", replicaPutAck{ID: 1 << 20}, 5},                              // parent 5
		{"resPing", resPing{}, 2},                                                     // parent 2
		{"resPong", resPong{}, 2},                                                     // parent 2
		{"full ask (a re-ask; two-byte tag)", replicaGet{ID: 1 << 20, Key: key}, 16},  // parent 16
		{"not ready (two-byte tag)", replicaNotReady{ID: 1 << 20}, 6},                 // parent 8
	} {
		frame, err := transport.AppendMessage(link, nil, "node1", "node0", tc.msg)
		if err != nil {
			t.Fatal(err)
		}
		if len(frame) != tc.want {
			t.Errorf("%s: %d bytes, want %d", tc.name, len(frame), tc.want)
		}
	}
}

// sentEnv records what a handler sends.
type sentEnv struct {
	sim.Env
	sent []sim.Message
}

func (e *sentEnv) Send(_ string, m sim.Message) { e.sent = append(e.sent, m) }
func (*sentEnv) Domain() int                    { return 0 }

// A digest answer's dot count is checked against the bytes left before
// anything is allocated for it, and the frame is refused.
func TestDigestAnswerCountBeyondTheBytesLeft(t *testing.T) {
	dots := wire.AppendUvarint(nil, 1<<40)  // a count no frame can hold
	dots = wire.AppendString(dots, "node0") // and one dot
	dots = wire.AppendUvarint(dots, 3)
	r := wire.NewReader(nil)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(dots)
		if readDots(r) != nil || r.Err() == nil {
			t.Fatal("a dot count beyond the bytes left decoded")
		}
	})
	if allocs != 0 {
		t.Fatalf("refusing the count: %v allocs, want 0", allocs)
	}
	env := append(wire.AppendUvarint(nil, uint64(widReplicaDigestResp)<<2), wire.AppendUvarint(nil, 7)...)
	env = append(env, dots...)
	frame := append(wire.AppendUvarint(nil, uint64(len(env))), env...)
	if _, _, err := transport.DecodeFrame(frame); err == nil {
		t.Fatal("DecodeFrame accepted a digest answer whose count overruns it")
	}
}
