package gossip

import (
	"testing"

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
