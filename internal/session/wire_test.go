package session

import (
	"testing"

	"repro/internal/transport"
	"repro/internal/wiretest"
)

// Codec pinning for every session wire type: the round trip through a
// frame must be exact (see internal/wiretest).

func genWrite(g *wiretest.Gen) write {
	w := write{
		ID:      WriteID{Origin: g.Str(), Seq: g.Uint64()},
		Key:     g.Str(),
		Val:     g.Bytes(),
		Deleted: g.Bool(),
		Client:  g.Str(),
		CliSeq:  g.Uint64(),
	}
	w.TS.Time = g.Uint64()
	w.TS.Node = g.Str()
	return w
}

func genWrites(g *wiretest.Gen) []write {
	if g.R.Intn(4) == 0 {
		return nil
	}
	out := make([]write, g.R.Intn(5))
	for i := range out {
		out[i] = genWrite(g)
	}
	return out
}

func genMsgs(g *wiretest.Gen) []transport.Message {
	return []transport.Message{
		aeReq{V: g.Vector()},
		aeResp{Writes: genWrites(g)},
		sread{ID: g.Uint64(), Key: g.Str(), MinVec: g.Vector()},
		sreadResp{ID: g.Uint64(), Key: g.Str(), Val: g.Bytes(), OK: g.Bool(), V: g.Vector(), TimedOut: g.Bool()},
		swrite{ID: g.Uint64(), Key: g.Str(), Val: g.Bytes(), Deleted: g.Bool(), MinVec: g.Vector()},
		swriteResp{ID: g.Uint64(), WID: WriteID{Origin: g.Str(), Seq: g.Uint64()}, V: g.Vector(), TimedOut: g.Bool()},
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
