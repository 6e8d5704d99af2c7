package quorum

import (
	"testing"

	"repro/internal/clock"
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
		replicaGetResp{ID: g.Uint64(), Key: g.Str(), Entries: genEntries(g), NotReady: g.Bool()},
		replicaGetResp{ID: g.Uint64(), Key: g.Str(), Entries: genDigests(g), NotReady: g.Bool(), Digest: true},
		handoffDeliver{Key: g.Str(), Entries: genEntries(g)},
		handoffAck{Key: g.Str()},
		resPing{Pad: g.Byte()},
		resPong{Pad: g.Byte()},
		aeReq{Leaves: g.Uint64s()},
		aeResp{Buckets: g.Ints(), Entries: genAEEntries(g)},
		aePush{Entries: genAEEntries(g)},
		transferReq{
			Seq: g.Uint64(), Idx: int(g.Int64()), Nonce: g.Uint64(),
			Start: g.Uint64(), End: g.Uint64(),
			CurHash: g.Uint64(), CurKey: g.Str(), Max: int(g.Int64()),
		},
		transferBatch{
			Seq: g.Uint64(), Idx: int(g.Int64()), Nonce: g.Uint64(),
			Entries: genAEEntries(g),
			CurHash: g.Uint64(), CurKey: g.Str(), Done: g.Bool(),
		},
		replicaNotOwner{ID: g.Uint64(), Seq: g.Uint64()},
		geoShip{Seq: g.Uint64(), Zone: g.Str(), HighTS: g.Int64(), Items: genAEEntries(g)},
		geoShipAck{Seq: g.Uint64()},
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
