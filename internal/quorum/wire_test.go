package quorum

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/storage"
	"repro/internal/transport"
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

// genDigests returns an entry list as a digest answer carries it: no
// entry holds a value.
func genDigests(g *wiretest.Gen) []clock.SiblingEntry[record] {
	es := genEntries(g)
	for i := range es {
		es[i].Value.Value = nil
	}
	return es
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
		replicaGet{ID: g.Uint64(), Key: g.Str(), Digest: g.Bool()},
		replicaGetResp{ID: g.Uint64(), Entries: genEntries(g), NotReady: g.Bool()},
		replicaGetResp{ID: g.Uint64(), Entries: genDigests(g), NotReady: g.Bool(), Digest: true},
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
// the parent layout's size too (a 4-byte length, a codec byte, two empty
// addresses and the wire id: 8 bytes of framing against 2 or 3 now).
// The transport's heartbeat and its echo are pinned beside their type
// (transport.TestHeartbeatFrameSizes).
func TestPeerFrameSizes(t *testing.T) {
	link := transport.Link{Local: "node1", Remote: "node0"}
	const key = "k00000042" // the benchmark's key names
	dot := clock.Dot{Node: "node0#gw1", Counter: 1 << 14}
	digest := []clock.SiblingEntry[record]{{DVV: clock.DVV{Dot: dot}}}
	put := replicaPut{ID: 1 << 20, Key: key, Entry: clock.SiblingEntry[record]{
		DVV:   clock.DVV{Dot: dot, Context: clock.Vector{"node0#gw1": 1<<14 - 1}},
		Value: record{Value: make([]byte, 128)},
	}}
	for _, tc := range []struct {
		name string
		msg  transport.BinaryMessage
		want int
	}{
		{"digest ask", replicaGet{ID: 1 << 20, Key: key, Digest: true}, 16},               // parent 22
		{"digest answer", replicaGetResp{ID: 1 << 20, Entries: digest, Digest: true}, 24}, // parent 30
		{"replicaPut, 128 B value", put, 175},                                             // parent 180: its length takes two bytes
		{"replicaPutAck", replicaPutAck{ID: 1 << 20}, 5},                                  // parent 11
		{"resPing", resPing{}, 2},                                                         // parent 8
		{"resPong", resPong{}, 2},                                                         // parent 8
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
