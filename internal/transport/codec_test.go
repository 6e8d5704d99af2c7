package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/wire"
)

// roundTrip frames e, decodes it, and checks the result is identical.
func roundTrip(t testing.TB, e Envelope) {
	t.Helper()
	frame, err := AppendFrame(nil, e)
	if err != nil {
		t.Fatalf("encode %T: %v", e.Msg, err)
	}
	got, n, err := DecodeFrame(frame)
	if err != nil {
		t.Fatalf("decode %T: %v", e.Msg, err)
	}
	if n != len(frame) {
		t.Fatalf("decode consumed %d of %d bytes", n, len(frame))
	}
	if !reflect.DeepEqual(got, e) {
		t.Fatalf("round trip:\n got  %#v\n want %#v", got, e)
	}
}

// linkRoundTrip frames e on link l and reads it on the link's other end:
// the envelope comes back with an empty address read as the link's end,
// and every other address as written.
func linkRoundTrip(t testing.TB, l Link, e Envelope) {
	t.Helper()
	frame, err := l.AppendBatch(nil, []Envelope{e})
	if err != nil {
		t.Fatalf("encode %T: %v", e.Msg, err)
	}
	got, n, err := reverse(l).ReadBatch(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatalf("decode %T: %v", e.Msg, err)
	}
	if n != len(frame) {
		t.Fatalf("decode consumed %d of %d bytes", n, len(frame))
	}
	want := e
	if want.From == "" {
		want.From = l.Local
	}
	if want.To == "" {
		want.To = l.Remote
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], want) {
		t.Fatalf("round trip on %+v:\n got  %#v\n want %#v", l, got, want)
	}
}

// reverse is link l as its other end holds it.
func reverse(l Link) Link { return Link{Local: l.Remote, Remote: l.Local} }

// genLink draws a link for e: each end is empty, e's address on that
// side (so it is elided), or another name.
func genLink(seed int64, e Envelope) Link {
	rng := rand.New(rand.NewSource(seed))
	end := func(addr string) string {
		switch rng.Intn(3) {
		case 0:
			return ""
		case 1:
			return addr
		}
		return fmt.Sprintf("n%d", rng.Intn(4))
	}
	return Link{Local: end(e.From), Remote: end(e.To)}
}

func genEnvs(seed int64) []Envelope {
	rng := rand.New(rand.NewSource(seed))
	str := func() string {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	val := func() []byte {
		if rng.Intn(4) == 0 {
			return nil
		}
		b := make([]byte, rng.Intn(25))
		rng.Read(b)
		return b
	}
	return []Envelope{
		{From: str(), To: str(), Msg: hello{Kind: str(), ID: str()}},
		{From: str(), To: str(), Msg: heartbeat{T: rng.Int63() - rng.Int63(), Echo: rng.Intn(2) == 1}},
		{From: str(), To: str(), Msg: bigMsg{B: val()}},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 256; seed++ {
		for i, e := range genEnvs(seed) {
			roundTrip(t, e)
			linkRoundTrip(t, genLink(seed+int64(i), e), e)
		}
	}
}

// A message without a wire codec cannot be framed: the error names the
// type, alone or inside a batch, and nothing is appended.
func TestMessageWithoutCodecIsAnEncodeError(t *testing.T) {
	type uncoded struct{ A string }
	bad := Envelope{From: "a", To: "b", Msg: uncoded{A: "x"}}
	prefix := []byte("kept")
	for name, encode := range map[string]func() ([]byte, error){
		"frame": func() ([]byte, error) { return AppendFrame(prefix, bad) },
		"batch": func() ([]byte, error) { return Link{}.AppendBatch(prefix, append(genEnvs(1), bad)) },
	} {
		out, err := encode()
		if err == nil || !strings.Contains(err.Error(), "transport.uncoded") {
			t.Errorf("%s: got %v, want an error naming transport.uncoded", name, err)
		}
		if string(out) != "kept" {
			t.Errorf("%s: a failed encode left %q in the buffer", name, out)
		}
	}
}

func FuzzCodecRoundTrip(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		for i, e := range genEnvs(seed) {
			roundTrip(t, e)
			linkRoundTrip(t, genLink(seed+int64(i), e), e)
		}
	})
}

// TestLinkRoundTrip frames envelopes on a peer link and on both ends of a
// client link. Each frame leaves out exactly the addresses equal to the
// writer's end on their side, and the reader restores the envelope.
func TestLinkRoundTrip(t *testing.T) {
	peer := Link{Local: "node0", Remote: "node1"}
	client := Link{Local: "cli"} // a client names the node it dialed ""
	server := reverse(client)
	hb := heartbeat{T: 99}
	cases := []struct {
		name  string
		link  Link
		envs  []Envelope
		saved int // bytes left out, against the zero link's frame
	}{
		{"peer, both ends", peer, []Envelope{{From: "node0", To: "node1", Msg: hb}}, 10},
		{"peer, gateway sender", peer, []Envelope{{From: "node0#gw1", To: "node1", Msg: echoMsg{N: 1}}}, 5},
		{"peer, gateway receiver", peer, []Envelope{{From: "node0", To: "node1#gw2", Msg: echoMsg{N: 2}}}, 5},
		{"peer, addresses of the opposite ends", peer, []Envelope{{From: "node1", To: "node0", Msg: hb}}, 0},
		{"peer, mixed batch", peer, []Envelope{
			{From: "node0", To: "node1", Msg: hb},
			{From: "node0#gw1", To: "node1#gw1", Msg: bigMsg{B: []byte("x")}},
			{From: "node0", To: "node1#gw3", Msg: echoMsg{N: 3}},
			{From: "node0#gw2", To: "node1", Msg: heartbeat{Echo: true}},
		}, 20},
		{"client request, empty To", client, []Envelope{{From: "cli", To: "", Msg: echoMsg{N: 4}}}, 3},
		{"server answer", server, []Envelope{{From: "", To: "cli", Msg: echoReply{N: 4}}}, 3},
		// A connection's hello is written before there is a link.
		{"hello, on the zero link", Link{}, []Envelope{{From: "node0", To: "node1", Msg: hello{Kind: "peer", ID: "node0"}}}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frame, err := tc.link.AppendBatch(nil, tc.envs)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := Link{}.AppendBatch(nil, tc.envs)
			if err != nil {
				t.Fatal(err)
			}
			if saved := len(plain) - len(frame); saved != tc.saved {
				t.Errorf("the link left out %d bytes, want %d", saved, tc.saved)
			}
			got, _, err := reverse(tc.link).ReadBatch(bytes.NewReader(frame), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.envs) {
				t.Fatalf("read back\n %#v\nwant\n %#v", got, tc.envs)
			}
			for _, e := range tc.envs {
				linkRoundTrip(t, tc.link, e)
			}
		})
	}
}

// The zero link elides nothing: its frames are the bytes every frame had
// before links existed, which the frame probes in bench/ measure and the
// hello still carries.
func TestZeroLinkFramesAreUnchanged(t *testing.T) {
	cases := []struct {
		envs []Envelope
		want string
	}{
		{[]Envelope{{From: "node0", To: "node1", Msg: heartbeat{T: 12345}}},
			"\x00\x00\x00\x12\x01\x05node0\x05node1\x02\xf2\xc0\x01\x00"},
		{[]Envelope{{From: "node0", To: "node1", Msg: hello{Kind: "peer", ID: "node0"}}},
			"\x00\x00\x00\x19\x01\x05node0\x05node1\x01\x04peer\x05node0"},
		{[]Envelope{
			{From: "node0", To: "node1#gw1", Msg: echoMsg{N: 7}},
			{From: "node0#gw1", To: "node1", Msg: bigMsg{B: []byte("abc")}},
		}, "\x00\x00\x00-\x02\x02\x13\x01\x05node0\tnode1#gw1\x03\x0e\x16\x01\tnode0#gw1\x05node1\x05\x04abc"},
		{[]Envelope{{From: "cli", Msg: echoMsg{N: -3}}},
			"\x00\x00\x00\b\x01\x03cli\x00\x03\x05"},
	}
	for i, tc := range cases {
		got, err := Link{}.AppendBatch(nil, tc.envs)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("frame %d = %q, want %q", i, got, tc.want)
		}
		if len(tc.envs) > 1 {
			continue
		}
		if plain, _ := AppendFrame(nil, tc.envs[0]); string(plain) != tc.want {
			t.Errorf("AppendFrame %d = %q, want %q", i, plain, tc.want)
		}
		if e, _, err := DecodeFrame(got); err != nil || !reflect.DeepEqual(e, tc.envs[0]) {
			t.Errorf("DecodeFrame %d = %#v, %v", i, e, err)
		}
	}
}

// TestBatchRoundTrip pins the batch frame format: several envelopes
// behind one length prefix, recovered in order by ReadBatch.
func TestBatchRoundTrip(t *testing.T) {
	envs := genEnvs(7)
	envs = append(envs, genEnvs(8)...)
	frame, err := Link{}.AppendBatch(nil, envs)
	if err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if frame[4] != codecBatch {
		t.Fatalf("multi-envelope frame has codec %d, want batch", frame[4])
	}
	got, n, err := Link{}.ReadBatch(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatalf("ReadBatch: %v", err)
	}
	if n != len(frame) {
		t.Fatalf("ReadBatch consumed %d of %d bytes", n, len(frame))
	}
	if !reflect.DeepEqual(got, envs) {
		t.Fatalf("batch round trip:\n got  %#v\n want %#v", got, envs)
	}

	// A single envelope must not pay the batch header…
	single, err := Link{}.AppendBatch(nil, envs[:1])
	if err != nil {
		t.Fatalf("Link{}.AppendBatch(1): %v", err)
	}
	if single[4] == codecBatch {
		t.Fatal("single-envelope batch framed as batch")
	}
	// …and ReadBatch must accept the plain frame it produced.
	got, _, err = Link{}.ReadBatch(bytes.NewReader(single), nil)
	if err != nil || len(got) != 1 || !reflect.DeepEqual(got[0], envs[0]) {
		t.Fatalf("Link{}.ReadBatch(plain frame) = %#v, %v", got, err)
	}
}

// Each connection reads frames through one buffered reader: a frame's
// length prefix and body, and the frames behind them, come in whatever
// reads the socket delivers. ReadBatch decodes every envelope whether
// the stream arrives one byte per read or all of it in one.
func TestReadBatchThroughABufferedReader(t *testing.T) {
	var stream []byte
	var want []Envelope
	for seed := int64(0); seed < 6; seed++ {
		envs := genEnvs(seed)
		var err error
		if seed%2 == 0 {
			stream, err = Link{}.AppendBatch(stream, envs)
		} else {
			for _, e := range envs {
				if stream, err = AppendFrame(stream, e); err != nil {
					break
				}
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, envs...)
	}
	stream, _ = AppendFrame(stream, Envelope{From: "a", To: "b", Msg: bigMsg{B: make([]byte, 3*ReadBufferSize)}})
	want = append(want, Envelope{From: "a", To: "b", Msg: bigMsg{B: make([]byte, 3*ReadBufferSize)}})
	for name, src := range map[string]io.Reader{
		"one byte per read":   iotest.OneByteReader(bytes.NewReader(stream)),
		"coalesced in a read": bytes.NewReader(stream),
	} {
		t.Run(name, func(t *testing.T) {
			r := bufio.NewReaderSize(src, ReadBufferSize)
			var got []Envelope
			total := 0
			for {
				var n int
				var err error
				got, n, err = Link{}.ReadBatch(r, got)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("after %d envelopes: %v", len(got), err)
				}
				total += n
			}
			if total != len(stream) {
				t.Fatalf("ReadBatch reported %d bytes of %d", total, len(stream))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded %d envelopes that differ from the %d framed", len(got), len(want))
			}
		})
	}
}

// TestAppendBatchLayout pins the batch frame byte for byte against one
// built by hand, with member bodies whose length headers take one, two
// and three bytes: each member is encoded in place and shifted right by
// its header, and the shift must land every byte where a copy would.
func TestAppendBatchLayout(t *testing.T) {
	envs := []Envelope{
		{From: "a", To: "b", Msg: bigMsg{B: make([]byte, 10)}},
		{From: "node0", To: "node1", Msg: bigMsg{B: bytes.Repeat([]byte{0xab}, 300)}},
		{From: "node1", To: "node0", Msg: bigMsg{B: bytes.Repeat([]byte{0xcd}, 20000)}},
	}
	want := []byte{codecBatch}
	want = binary.AppendUvarint(want, uint64(len(envs)))
	for i, e := range envs {
		body, err := Link{}.appendBody(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		hdr := binary.AppendUvarint(nil, uint64(len(body)))
		if len(hdr) != i+1 {
			t.Fatalf("member %d: a %d-byte body has a %d-byte header, want %d", i, len(body), len(hdr), i+1)
		}
		want = append(append(want, hdr...), body...)
	}
	want = frameFor(want)
	prefix := []byte("kept")
	got, err := Link{}.AppendBatch(prefix, envs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("batch frame differs from the hand-built one (%d bytes, want %d after the prefix)", len(got), len(want))
	}
}

// A batch frame encodes into the buffer it is given: with room in it,
// framing three envelopes allocates nothing.
func TestAppendBatchAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	envs := []Envelope{
		{From: "node0", To: "node1", Msg: heartbeat{T: 1}},
		{From: "node0", To: "node1", Msg: echoMsg{N: 2}},
		{From: "node0", To: "node1", Msg: bigMsg{B: make([]byte, 200)}},
	}
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if buf, err = (Link{}).AppendBatch(buf[:0], envs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendBatch of 3 envelopes: %v allocs, want 0", allocs)
	}
}

// Decoding a frame in memory reads it in place: the decoded message
// aliases the frame, and nothing is copied or allocated but the message.
func TestDecodeFrameDecodesInPlace(t *testing.T) {
	frame, err := AppendFrame(nil, Envelope{From: "node0", To: "node1", Msg: bigMsg{B: []byte("payload")}})
	if err != nil {
		t.Fatal(err)
	}
	e, n, err := DecodeFrame(frame)
	if err != nil || n != len(frame) {
		t.Fatalf("DecodeFrame = %d bytes, %v; want %d", n, err, len(frame))
	}
	b := e.Msg.(bigMsg).B
	if i := bytes.Index(frame, []byte("payload")); &b[0] != &frame[i] {
		t.Fatal("the decoded payload is a copy of the frame's bytes")
	}
	if _, _, err := DecodeFrame(frame[:len(frame)-1]); err != io.ErrUnexpectedEOF {
		t.Fatalf("a frame short of its length prefix: %v, want io.ErrUnexpectedEOF", err)
	}
}

// Reading a frame allocates its body and nothing else: the length prefix
// is read into a recycled buffer, not one per frame.
func TestReadFrameBodyAllocatesOnlyTheBody(t *testing.T) {
	frame, err := AppendFrame(nil, genEnvs(3)[1])
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(frame)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(frame)
		if _, _, err := readFrameBody(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("readFrameBody: %v allocs per frame, want 1 (the body)", allocs)
	}
}

// frameFor builds a raw frame around body (length prefix included).
func frameFor(body []byte) []byte {
	f := make([]byte, 4, 4+len(body))
	binary.BigEndian.PutUint32(f, uint32(len(body)))
	return append(f, body...)
}

// binaryBody builds a codecBinary body by hand.
func binaryBody(from, to string, id uint64, payload []byte) []byte {
	b := []byte{codecBinary}
	b = wire.AppendString(b, from)
	b = wire.AppendString(b, to)
	b = binary.AppendUvarint(b, id)
	return append(b, payload...)
}

// TestMalformedFrames throws every corruption class at the frame reader
// and requires a clean error — never a panic, never a huge allocation.
func TestMalformedFrames(t *testing.T) {
	helloPayload := wire.AppendString(wire.AppendString(nil, "peer"), "n1")
	oversized := make([]byte, 4)
	binary.BigEndian.PutUint32(oversized, MaxFrameSize+1)

	cases := []struct {
		name string
		raw  []byte
	}{
		{"truncated header", []byte{0, 0}},
		{"oversized length prefix", oversized},
		{"mid-message EOF", frameFor(make([]byte, 100))[:20]},
		{"empty body", frameFor(nil)},
		{"unknown codec version", frameFor([]byte{0x7f, 1, 2, 3})},
		{"binary body truncated header", frameFor([]byte{codecBinary, 0x05, 'a'})},
		{"unknown wire id", frameFor(binaryBody("a", "b", 9999, nil))},
		{"wire id out of range", frameFor(binaryBody("a", "b", 1<<20, nil))},
		{"payload truncated", frameFor(binaryBody("a", "b", 1, helloPayload[:1]))},
		{"trailing bytes", frameFor(append(binaryBody("a", "b", 1, helloPayload), 0xff))},
		{"length overrun in payload", frameFor(binaryBody("a", "b", 1, []byte{0xff, 0xff, 0x03}))},
		{"retired codec 0", frameFor(append([]byte{0}, binaryBody("a", "b", 1, helloPayload)[1:]...))},
		{"bare batch byte", frameFor([]byte{codecBatch})},
		{"batch count overruns frame", frameFor([]byte{codecBatch, 0xc8})},
		{"batch member truncated", frameFor([]byte{codecBatch, 1, 10, 1, 2, 3})},
		{"batch trailing bytes", func() []byte {
			b, _ := Link{}.appendBody(nil, Envelope{From: "a", To: "b", Msg: heartbeat{T: 1}})
			raw := []byte{codecBatch, 1}
			raw = binary.AppendUvarint(raw, uint64(len(b)))
			raw = append(raw, b...)
			return frameFor(append(raw, 0xee))
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := ReadFrame(bytes.NewReader(tc.raw)); err == nil {
				t.Error("ReadFrame accepted malformed input")
			}
			if _, _, err := (Link{}).ReadBatch(bytes.NewReader(tc.raw), nil); err == nil {
				t.Error("ReadBatch accepted malformed input")
			}
		})
	}

	// A batch frame is well-formed for ReadBatch but must be rejected by
	// ReadFrame (handshake reader).
	batch, err := Link{}.AppendBatch(nil, genEnvs(1)[:2])
	if err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(batch)); err == nil {
		t.Error("ReadFrame accepted a batch frame")
	}
}

// FuzzDecodeFrame drives raw attacker-controlled bytes through both
// frame readers: any outcome but a panic or an over-read is fine.
func FuzzDecodeFrame(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		for _, e := range genEnvs(seed) {
			frame, err := AppendFrame(nil, e)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(frame)
		}
	}
	if batch, err := (Link{}).AppendBatch(nil, genEnvs(5)); err == nil {
		f.Add(batch)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		DecodeFrame(raw)
		Link{}.ReadBatch(bytes.NewReader(raw), nil)
	})
}
