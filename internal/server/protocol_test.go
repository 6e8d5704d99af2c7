package server

import (
	"testing"

	"repro/internal/session"
	"repro/internal/transport"
	"repro/internal/wiretest"
)

// Codec pinning for the client protocol: the round trip through a frame
// must be exact (see internal/wiretest).

// genStrs returns nil or 1..4 strings, never an empty list: appendStrings
// writes a plain count, so readStrings gives nil for empty.
func genStrs(g *wiretest.Gen) []string {
	if g.R.Intn(4) == 0 {
		return nil
	}
	out := make([]string, 1+g.R.Intn(4))
	for i := range out {
		out[i] = g.Str()
	}
	return out
}

func genMsgs(g *wiretest.Gen) []transport.Message {
	return []transport.Message{
		Request{
			Seq:     g.Uint64(),
			Op:      g.Str(),
			Key:     g.Str(),
			Value:   g.Bytes(),
			Token:   session.Token{Read: g.Vector(), Write: g.Vector()},
			SLA:     g.Byte(),
			BoundMs: g.Int64(),
			Zone:    g.Str(),
		},
		Response{
			Seq:      g.Uint64(),
			OK:       g.Bool(),
			Err:      g.Str(),
			Value:    g.Bytes(),
			Found:    g.Bool(),
			Values:   g.ByteSlices(),
			Token:    session.Token{Read: g.Vector(), Write: g.Vector()},
			Node:     g.Str(),
			Model:    g.Str(),
			NotOwner: g.Bool(),
			Epoch:    g.Uint64(),
			State:    g.Str(),
			StaleMs:  g.Int64(),
			Tier:     g.Byte(),
			Zone:     g.Str(),
		},
		ringUpdate{
			Seq:     g.Uint64(),
			Joining: g.Str(),
			Leaving: g.Str(),
			Members: genStrs(g),
			Addrs:   genStrs(g),
			Settled: g.Bool(),
			Reply:   g.Bool(),
			Zones:   genStrs(g),
		},
		ringAck{Seq: g.Uint64()},
		beginTransfer{Seq: g.Uint64()},
		transferComplete{Seq: g.Uint64()},
		epochSettled{Seq: g.Uint64()},
		ringPull{Pad: g.Byte()},
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
