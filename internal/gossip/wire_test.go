package gossip

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wiretest"
)

// Codec pinning for every gossip wire type: the round trip through a
// frame must be exact (see internal/wiretest).

func genWrite(g *wiretest.Gen) Write {
	w := Write{Key: g.Str(), Value: g.Bytes(), Deleted: g.Bool()}
	w.TS.Wall = g.Int64()
	w.TS.Logical = uint32(g.Uint64())
	w.TS.Node = g.Str()
	return w
}

func genWrites(g *wiretest.Gen) []Write {
	if g.R.Intn(4) == 0 {
		return nil
	}
	out := make([]Write, g.R.Intn(5))
	for i := range out {
		out[i] = genWrite(g)
	}
	return out
}

func genPairs(g *wiretest.Gen) []storage.HashPair {
	if g.R.Intn(4) == 0 {
		return nil
	}
	out := make([]storage.HashPair, g.R.Intn(9))
	for i := range out {
		out[i] = storage.HashPair{Idx: int(g.Int64()), Hash: g.Uint64()}
	}
	return out
}

func genMsgs(g *wiretest.Gen) []transport.Message {
	return []transport.Message{
		syncStep{Pairs: genPairs(g), Buckets: g.Ints()},
		syncResp{Buckets: g.Ints(), Writes: genWrites(g)},
		syncPush{Writes: genWrites(g)},
		rumor{W: genWrite(g), TTL: int(g.Int64())},
	}
}

func checkAll(t testing.TB, seed int64) {
	g := wiretest.NewGen(seed)
	for _, m := range genMsgs(g) {
		wiretest.Check(t, m)
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

// TestRumorFrameSize pins the frame of a gossip_mixed put's rumor: its
// wire id takes one byte, and its 128 B value makes its length two bytes.
func TestRumorFrameSize(t *testing.T) {
	w := Write{Key: "k00000042", Value: make([]byte, 128),
		TS: clock.HLCTimestamp{Wall: 1_790_000_000_000_000_000, Logical: 3, Node: "node0"}}
	frame, err := transport.AppendMessage(nil, rumor{W: w, TTL: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := 161; len(frame) != want { // 162 while the rumor's id was 43, two bytes behind a shifted tag
		t.Errorf("rumor: %d bytes, want %d", len(frame), want)
	}
}
