package server

import (
	"bytes"
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

// genResponse returns a get's answer shaped as a quorum get builds it:
// Value is the first sibling, the same slice, whenever there is one.
func genResponse(g *wiretest.Gen) Response {
	r := Response{Seq: g.Uint64(), OK: true, Values: g.ByteSlices(), Tier: g.Byte()}
	if len(r.Values) > 0 {
		r.Found, r.Value = true, r.Values[0]
	}
	return r
}

// genToken draws a token, nil when both its vectors are, as readToken
// decodes one.
func genToken(g *wiretest.Gen) *session.Token {
	t := session.Token{Read: g.Vector(), Write: g.Vector()}
	if t.Read == nil && t.Write == nil {
		return nil
	}
	return &t
}

func genMsgs(g *wiretest.Gen) []transport.Message {
	return []transport.Message{
		Request{
			Seq:     g.Uint64(),
			Op:      g.Str(),
			Key:     g.Str(),
			Value:   g.Bytes(),
			Token:   genToken(g),
			SLA:     g.Byte(),
			BoundMs: g.Int64(),
			Zone:    g.Str(),
			Context: g.Bytes(),
		},
		genResponse(g),
		Response{
			Seq:      g.Uint64(),
			OK:       g.Bool(),
			Err:      g.Str(),
			Value:    g.Bytes(),
			Found:    g.Bool(),
			Values:   g.ByteSlices(),
			Token:    genToken(g),
			Node:     g.Str(),
			NotOwner: g.Bool(),
			Epoch:    g.Uint64(),
			State:    g.Str(),
			StaleMs:  g.Int64(),
			Tier:     g.Byte(),
			Zone:     g.Str(),
			Context:  g.Bytes(),
		},
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
	t.Run("value carried once", checkValueCarriedOnce)
}

// frameOf encodes msg as the transport does and decodes it again.
func frameOf(t *testing.T, msg transport.Message) (frame []byte, got Response) {
	t.Helper()
	frame, err := transport.AppendFrame(nil, transport.Envelope{From: "node0", To: "c", Msg: msg})
	if err != nil {
		t.Fatal(err)
	}
	env, _, err := transport.DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	return frame, env.Msg.(Response)
}

// checkValueCarriedOnce pins the one place the client codec looks at
// identity: a get's answer whose Value is Values[0], the slice a quorum
// get builds, crosses the wire with the value in it once and
// decodes to the same shape; every other answer is written in full.
func checkValueCarriedOnce(t *testing.T) {
	v := bytes.Repeat([]byte("v"), 4096)
	w := bytes.Repeat([]byte("w"), 100)
	for _, tc := range []struct {
		name   string
		resp   Response
		copies int // times v's bytes appear in the frame
	}{
		{"aliased", Response{OK: true, Found: true, Value: v, Values: [][]byte{v, w}}, 1},
		{"aliased, not found", Response{OK: true, Value: v, Values: [][]byte{v}}, 1},
		{"distinct slices, equal bytes", Response{OK: true, Found: true, Value: bytes.Clone(v), Values: [][]byte{v, w}}, 2},
		{"distinct values", Response{OK: true, Found: true, Value: w, Values: [][]byte{v, w}}, 1},
		{"a prefix of the first sibling", Response{OK: true, Found: true, Value: v[:10], Values: [][]byte{v}}, 1},
		{"no siblings", Response{OK: true, Found: true, Value: v}, 1},
		{"empty sibling list", Response{OK: true, Found: true, Value: v, Values: [][]byte{}}, 1},
		{"empty value and first sibling", Response{OK: true, Found: true, Value: []byte{}, Values: [][]byte{{}}}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wiretest.Check(t, tc.resp)
			frame, got := frameOf(t, tc.resp)
			if n := bytes.Count(frame, v); n != tc.copies {
				t.Errorf("the frame holds the value %d times, want %d", n, tc.copies)
			}
			if tc.resp.valueIsFirst() && &got.Value[0] != &got.Values[0][0] {
				t.Error("decoded Value is not Values[0]")
			}
		})
	}
	// The mark without what it promises is malformed, not a nil Value.
	frame, _ := frameOf(t, Response{OK: true, Found: true, Value: v, Values: [][]byte{v}})
	bare, _ := frameOf(t, Response{OK: true, Found: true})
	body := Response{OK: true, Found: true}.AppendBinary(nil)
	const flagsAt = 4 // after Seq, OK, an empty Err and a nil Value, a byte each
	if body[flagsAt] != respFound {
		t.Fatalf("body % x: no flags byte at %d", body, flagsAt)
	}
	bare[bytes.Index(bare, body)+flagsAt] |= respValueFirst
	if _, _, err := transport.DecodeFrame(bare); err == nil {
		t.Error("a frame marked value-is-first with no siblings decoded")
	}
	if _, _, err := transport.DecodeFrame(frame); err != nil {
		t.Errorf("the well-formed marked frame: %v", err)
	}
}

// sameFrame checks that AppendMessage frames m into the bytes AppendFrame
// frames the boxed m with, appended to what dst held, whatever addresses
// the envelope holds.
func sameFrame[M transport.BinaryMessage](t *testing.T, from, to string, m M) {
	t.Helper()
	want, err := transport.AppendFrame([]byte("head"), transport.Envelope{From: from, To: to, Msg: m})
	if err != nil {
		t.Fatal(err)
	}
	got, err := transport.AppendMessage([]byte("head"), m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendMessage(%T) = % x, AppendFrame = % x", m, got, want)
	}
}

// The server frames its answers, and the client its requests, with
// AppendMessage: AppendFrame's bytes, without boxing the message into an
// Envelope, so framing one allocates nothing.
func TestAppendMessageMatchesAppendFrame(t *testing.T) {
	for seed := int64(0); seed < 64; seed++ {
		// A token's vectors encode in id order, so two framings of one
		// token agree byte for byte.
		msgs := genMsgs(wiretest.NewGen(seed))
		req, resp := msgs[0].(Request), msgs[2].(Response)
		sameFrame(t, "cli", "", req)
		sameFrame(t, "node0", "cli", msgs[1].(Response))
		sameFrame(t, "", "cli", resp)
	}
	sameFrame(t, "cli", "", transport.ClientHello("cli").(transport.BinaryMessage))
	if _, err := transport.AppendMessage(nil, Response{Value: make([]byte, transport.MaxFrameSize)}); err == nil {
		t.Fatal("a frame over MaxFrameSize was encoded")
	}
	if raceEnabled {
		return
	}
	resp := genResponse(wiretest.NewGen(1))
	buf := make([]byte, 0, 64<<10)
	if n := testing.AllocsPerRun(100, func() {
		buf, _ = transport.AppendMessage(buf[:0], resp)
	}); n != 0 {
		t.Fatalf("AppendMessage allocates %v objects per response, want 0", n)
	}
}

func FuzzCodecRoundTrip(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkAll(t, seed) })
}
