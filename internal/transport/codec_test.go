package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

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
// the envelope comes back as written, with every address the link left
// out read as the link's end.
func linkRoundTrip(t testing.TB, l Link, e Envelope) {
	t.Helper()
	frame, err := l.appendFrame(nil, e)
	if err != nil {
		t.Fatalf("encode %T: %v", e.Msg, err)
	}
	got, n, err := reverse(l).ReadStream(bufio.NewReader(bytes.NewReader(frame)), nil)
	if err != nil {
		t.Fatalf("decode %T: %v", e.Msg, err)
	}
	if n != len(frame) {
		t.Fatalf("decode consumed %d of %d bytes", n, len(frame))
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], e) {
		t.Fatalf("round trip on %+v:\n got  %#v\n want %#v", l, got, e)
	}
}

// appendStream frames envs on link l back to back, as a writer writes
// the envelopes it took from its queue.
func appendStream(l Link, dst []byte, envs []Envelope) ([]byte, error) {
	for _, e := range envs {
		var err error
		if dst, err = l.appendFrame(dst, e); err != nil {
			return dst, err
		}
	}
	return dst, nil
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
// type, on the zero link or any other, and nothing is appended.
func TestMessageWithoutCodecIsAnEncodeError(t *testing.T) {
	type uncoded struct{ A string }
	bad := Envelope{From: "a", To: "b", Msg: uncoded{A: "x"}}
	prefix := []byte("kept")
	for name, encode := range map[string]func() ([]byte, error){
		"frame":       func() ([]byte, error) { return AppendFrame(prefix, bad) },
		"on a link":   func() ([]byte, error) { return Link{Local: "a", Remote: "b"}.appendFrame(prefix, bad) },
		"in a stream": func() ([]byte, error) { return appendStream(Link{}, prefix, []Envelope{bad}) },
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
		saved int // bytes left out, against the zero link's frames
	}{
		{"peer, both ends", peer, []Envelope{{From: "node0", To: "node1", Msg: hb}}, 12},
		{"peer, gateway sender", peer, []Envelope{{From: "node0#gw1", To: "node1", Msg: echoMsg{N: 1}}}, 6},
		{"peer, gateway receiver", peer, []Envelope{{From: "node0", To: "node1#gw2", Msg: echoMsg{N: 2}}}, 6},
		{"peer, addresses of the opposite ends", peer, []Envelope{{From: "node1", To: "node0", Msg: hb}}, 0},
		{"peer, mixed batch", peer, []Envelope{
			{From: "node0", To: "node1", Msg: hb},
			{From: "node0#gw1", To: "node1#gw1", Msg: bigMsg{B: []byte("x")}},
			{From: "node0", To: "node1#gw3", Msg: echoMsg{N: 3}},
			{From: "node0#gw2", To: "node1", Msg: heartbeat{Echo: true}},
		}, 24},
		{"client request, empty To", client, []Envelope{{From: "cli", To: "", Msg: echoMsg{N: 4}}}, 4},
		{"server answer", server, []Envelope{{From: "", To: "cli", Msg: echoReply{N: 4}}}, 4},
		// An empty address that is not the link's end is written, and
		// reads back empty.
		{"peer, empty addresses", peer, []Envelope{{From: "", To: "", Msg: hb}}, -2},
		// A connection's hello is written before there is a link.
		{"hello, on the zero link", Link{}, []Envelope{{From: "node0", To: "node1", Msg: hello{Kind: "peer", ID: "node0"}}}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stream, err := appendStream(tc.link, nil, tc.envs)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := appendStream(Link{}, nil, tc.envs)
			if err != nil {
				t.Fatal(err)
			}
			if saved := len(plain) - len(stream); saved != tc.saved {
				t.Errorf("the link left out %d bytes, want %d", saved, tc.saved)
			}
			got, _, err := reverse(tc.link).ReadStream(bufio.NewReader(bytes.NewReader(stream)), nil)
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

// The zero link leaves out only empty addresses. Its frames are the
// bytes the frame probes in bench/ measure and the hello carries, pinned
// here byte for byte: 18, 25, 19 + 22 and 7 bytes. The parent layout, a
// 4-byte length and a codec byte before two strings and the wire id,
// took 22, 29, 49 (one batch frame for the pair) and 12.
func TestZeroLinkFramesAreUnchanged(t *testing.T) {
	cases := []struct {
		envs []Envelope
		want string
	}{
		{[]Envelope{{From: "node0", To: "node1", Msg: heartbeat{T: 12345}}},
			"\x11\x0b\x05node0\x05node1\xf2\xc0\x01\x00"},
		{[]Envelope{{From: "node0", To: "node1", Msg: hello{Kind: "peer", ID: "node0"}}},
			"\x18\x07\x05node0\x05node1\x04peer\x05node0"},
		{[]Envelope{
			{From: "node0", To: "node1#gw1", Msg: echoMsg{N: 7}},
			{From: "node0#gw1", To: "node1", Msg: bigMsg{B: []byte("abc")}},
		}, "\x12\x0f\x05node0\tnode1#gw1\x0e" + "\x15\x17\tnode0#gw1\x05node1\x04abc"},
		{[]Envelope{{From: "cli", Msg: echoMsg{N: -3}}},
			"\x06\x0e\x03cli\x05"},
	}
	for i, tc := range cases {
		got, err := appendStream(Link{}, nil, tc.envs)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("stream %d = %q, want %q", i, got, tc.want)
		}
		for _, e := range tc.envs {
			e2, n, err := DecodeFrame(got)
			if err != nil || !reflect.DeepEqual(e2, e) {
				t.Errorf("DecodeFrame %d = %#v, %v; want %#v", i, e2, err, e)
			}
			got = got[n:]
		}
	}
}

// TestBatchRoundTrip: the frames of one write, back to back, come out of
// one ReadStream call in order, and a lone frame reads the same way.
func TestBatchRoundTrip(t *testing.T) {
	envs := genEnvs(7)
	envs = append(envs, genEnvs(8)...)
	stream, err := appendStream(Link{}, nil, envs)
	if err != nil {
		t.Fatalf("appendStream: %v", err)
	}
	got, n, err := Link{}.ReadStream(bufio.NewReaderSize(bytes.NewReader(stream), ReadBufferSize), nil)
	if err != nil {
		t.Fatalf("ReadStream: %v", err)
	}
	if n != len(stream) {
		t.Fatalf("ReadStream consumed %d of %d bytes", n, len(stream))
	}
	if !reflect.DeepEqual(got, envs) {
		t.Fatalf("batch round trip:\n got  %#v\n want %#v", got, envs)
	}

	single, err := AppendFrame(nil, envs[0])
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	got, _, err = Link{}.ReadStream(bufio.NewReader(bytes.NewReader(single)), nil)
	if err != nil || len(got) != 1 || !reflect.DeepEqual(got[0], envs[0]) {
		t.Fatalf("ReadStream(one frame) = %#v, %v", got, err)
	}
}

// Each connection reads frames through one buffered reader: a frame's
// length and envelope, and the frames behind them, come in whatever
// reads the socket delivers. ReadStream decodes every envelope whether
// the stream arrives one byte per read or all of it in one.
func TestReadStreamThroughABufferedReader(t *testing.T) {
	var stream []byte
	var want []Envelope
	for seed := int64(0); seed < 6; seed++ {
		envs := genEnvs(seed)
		var err error
		if stream, err = appendStream(Link{}, stream, envs); err != nil {
			t.Fatal(err)
		}
		want = append(want, envs...)
	}
	big := Envelope{From: "a", To: "b", Msg: bigMsg{B: make([]byte, 3*ReadBufferSize)}}
	stream, _ = AppendFrame(stream, big)
	want = append(want, big)
	stream, _ = AppendFrame(stream, genEnvs(9)[1])
	want = append(want, genEnvs(9)[1])
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
				got, n, err = Link{}.ReadStream(r, got)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("after %d envelopes: %v", len(got), err)
				}
				total += n
			}
			if total != len(stream) {
				t.Fatalf("ReadStream reported %d bytes of %d", total, len(stream))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded %d envelopes that differ from the %d framed", len(got), len(want))
			}
		})
	}
}

// TestAppendFrameLayout pins frames byte for byte against ones built by
// hand, with lengths that take one, two and three bytes: each envelope is
// encoded behind one byte of room and shifted right by the rest of its
// length, and the shift must land every byte where a copy would.
func TestAppendFrameLayout(t *testing.T) {
	envs := []Envelope{
		{From: "a", To: "b", Msg: bigMsg{B: make([]byte, 10)}},
		{From: "node0", To: "node1", Msg: bigMsg{B: bytes.Repeat([]byte{0xab}, 300)}},
		{From: "node1", To: "node0", Msg: bigMsg{B: bytes.Repeat([]byte{0xcd}, 20000)}},
	}
	var want []byte
	for i, e := range envs {
		env := envelopeBody(5<<2|fromPresent|toPresent, e.From, e.To, e.Msg.(bigMsg).AppendBinary(nil))
		hdr := binary.AppendUvarint(nil, uint64(len(env)))
		if len(hdr) != i+1 {
			t.Fatalf("envelope %d: %d bytes have a %d-byte length, want %d", i, len(env), len(hdr), i+1)
		}
		want = append(append(want, hdr...), env...)
	}
	prefix := []byte("kept")
	got, err := appendStream(Link{}, prefix, envs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("frames differ from the hand-built ones (%d bytes, want %d after the prefix)", len(got), len(want))
	}
}

// Frames encode into the buffer they are given: with room in it,
// framing three envelopes allocates nothing.
func TestAppendFrameAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	envs := []Envelope{
		{From: "node0", To: "node1", Msg: heartbeat{T: 1}},
		{From: "node0", To: "node1", Msg: echoMsg{N: 2}},
		{From: "node0", To: "node1", Msg: bigMsg{B: make([]byte, 200)}},
	}
	link := Link{Local: "node0", Remote: "node1"}
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if buf, err = appendStream(link, buf[:0], envs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("framing 3 envelopes: %v allocs, want 0", allocs)
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

// Reading frames allocates one buffer per read and nothing else: the
// frames a buffered reader holds share it.
func TestReadFrameBodyAllocatesOnlyTheBody(t *testing.T) {
	stream, err := appendStream(Link{}, nil, genEnvs(3))
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(stream)
	r := bufio.NewReaderSize(src, ReadBufferSize)
	allocs := testing.AllocsPerRun(100, func() {
		src.Reset(stream)
		r.Reset(src)
		if block, n, err := readBlock(r); err != nil || n != len(stream) || len(block) != n {
			t.Fatalf("readBlock = %d bytes, %d read, %v; want the %d of three frames", len(block), n, err, len(stream))
		}
	})
	if allocs != 1 {
		t.Fatalf("readBlock: %v allocs per read, want 1 (the frames)", allocs)
	}
}

// frameFor builds a raw frame around an envelope (length included).
func frameFor(env []byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(env))), env...)
}

// envelopeBody builds an envelope by hand: the tag, the addresses its
// presence bits name, and the payload.
func envelopeBody(tag uint64, from, to string, payload []byte) []byte {
	b := binary.AppendUvarint(nil, tag)
	if tag&fromPresent != 0 {
		b = wire.AppendString(b, from)
	}
	if tag&toPresent != 0 {
		b = wire.AppendString(b, to)
	}
	return append(b, payload...)
}

// binaryBody builds an envelope with both addresses by hand.
func binaryBody(from, to string, id uint64, payload []byte) []byte {
	return envelopeBody(id<<2|fromPresent|toPresent, from, to, payload)
}

// readAllFrames reads raw to its end with each reader; the error that
// stopped it, nil for a clean end after the last frame.
func readAllFrames(raw []byte) map[string]error {
	clean := func(err error) error {
		if err == io.EOF {
			return nil
		}
		return err
	}
	errs := make(map[string]error, 3)
	for rd := bytes.NewReader(raw); ; {
		if _, _, err := ReadFrame(rd); err != nil {
			errs["ReadFrame"] = clean(err)
			break
		}
	}
	for r := bufio.NewReaderSize(bytes.NewReader(raw), 16); ; {
		if _, _, err := (Link{}).ReadStream(r, nil); err != nil {
			errs["ReadStream"] = clean(err)
			break
		}
	}
	for b := raw; ; {
		if len(b) == 0 {
			errs["DecodeFrame"] = nil
			break
		}
		_, n, err := DecodeFrame(b)
		if err != nil {
			errs["DecodeFrame"] = err
			break
		}
		b = b[n:]
	}
	return errs
}

// TestMalformedFrames throws every corruption class at the frame readers
// and requires a clean error — never a panic, never a huge allocation.
func TestMalformedFrames(t *testing.T) {
	helloPayload := wire.AppendString(wire.AppendString(nil, "peer"), "n1")
	heartbeatEnv := envelopeBody(2<<2, "", "", heartbeat{T: 1}.AppendBinary(nil))
	good := frameFor(heartbeatEnv)
	oversized := binary.AppendUvarint(nil, MaxFrameSize+1)
	// The first frame of TestZeroLinkFramesAreUnchanged as the parent
	// layout wrote it: a 4-byte big-endian length, then a codec byte.
	parent := []byte("\x00\x00\x00\x12\x01\x05node0\x05node1\x02\xf2\xc0\x01\x00")

	cases := []struct {
		name string
		raw  []byte
	}{
		{"truncated header", frameFor([]byte{0x80})},
		{"truncated length varint", []byte{0x80, 0x80}},
		{"length varint too long", append([]byte{byte(len(heartbeatEnv)) | 0x80, 0x80, 0x80, 0x80, 0}, heartbeatEnv...)},
		{"length varint not minimal", append([]byte{byte(len(heartbeatEnv)) | 0x80, 0}, heartbeatEnv...)},
		{"oversized length prefix", oversized},
		{"mid-message EOF", frameFor(make([]byte, 100))[:20]},
		{"empty body", frameFor(nil)},
		{"binary body truncated header", frameFor([]byte{1<<2 | fromPresent, 0x05, 'a'})},
		{"unknown wire id", frameFor(binaryBody("a", "b", 9999, nil))},
		{"wire id out of range", frameFor(binaryBody("a", "b", 1<<20, nil))},
		{"from present, missing", frameFor([]byte{1<<2 | fromPresent})},
		{"to present, missing", frameFor([]byte{1<<2 | toPresent})},
		{"payload truncated", frameFor(binaryBody("a", "b", 1, helloPayload[:1]))},
		{"trailing bytes", frameFor(append(binaryBody("a", "b", 1, helloPayload), 0xff))},
		{"length overrun in payload", frameFor(binaryBody("a", "b", 1, []byte{0xff, 0xff, 0x03}))},
		{"parent 4-byte layout", parent},
		{"batch member truncated", append(append([]byte{}, good...), good[:len(good)-1]...)},
		{"batch trailing bytes", append(append([]byte{}, good...), 0x05)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for reader, err := range readAllFrames(tc.raw) {
				if err == nil {
					t.Errorf("%s accepted malformed input", reader)
				}
			}
		})
	}
	if errs := readAllFrames(append(good, good...)); errs["ReadFrame"] != nil || errs["ReadStream"] != nil || errs["DecodeFrame"] != nil {
		t.Fatalf("two well-formed frames: %v", errs)
	}

	// A length over MaxFrameSize is refused before the reader allocates
	// for it.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 4; i++ {
		if _, _, err := ReadFrame(bytes.NewReader(oversized)); err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("ReadFrame of an oversized length: %v, want it refused", err)
		}
		if _, _, err := (Link{}).ReadStream(bufio.NewReader(bytes.NewReader(oversized)), nil); err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("ReadStream of an oversized length: %v, want it refused", err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing an oversized length allocated %d bytes", grew)
	}
}

// FuzzDecodeFrame drives raw attacker-controlled bytes through both
// single-frame readers: any outcome but a panic or an over-read is fine.
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
	if stream, err := appendStream(Link{}, nil, genEnvs(5)); err == nil {
		f.Add(stream)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if _, n, err := DecodeFrame(raw); err == nil && (n <= 0 || n > len(raw)) {
			t.Fatalf("DecodeFrame consumed %d of %d bytes", n, len(raw))
		}
		if _, n, err := ReadFrame(bytes.NewReader(raw)); err == nil && (n <= 0 || n > len(raw)) {
			t.Fatalf("ReadFrame consumed %d of %d bytes", n, len(raw))
		}
	})
}

// FuzzReadStream drives arbitrary bytes through a buffered reader and a
// link's stream reader, as a connection would deliver them: every read
// ends in an error or accounts for the bytes it took, and a stream read
// to a clean end accounts for all of them.
func FuzzReadStream(f *testing.F) {
	link := Link{Local: "node1", Remote: "node0"}
	for seed := int64(0); seed < 4; seed++ {
		envs := genEnvs(seed)
		envs = append(envs, Envelope{From: "node0", To: "node1", Msg: heartbeat{T: seed}})
		if stream, err := appendStream(reverse(link), nil, envs); err == nil {
			f.Add(stream)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		r := bufio.NewReaderSize(bytes.NewReader(raw), 16)
		total := 0
		var envs []Envelope
		for {
			var n int
			var err error
			envs, n, err = link.ReadStream(r, envs[:0])
			if err == io.EOF {
				if total != len(raw) {
					t.Fatalf("a clean end after %d of %d bytes", total, len(raw))
				}
				return
			}
			if err != nil {
				return
			}
			if n <= 0 || len(envs) == 0 {
				t.Fatalf("a read of %d bytes and %d envelopes without an error", n, len(envs))
			}
			total += n
		}
	})
}

// TestHeartbeatFrameSizes pins the transport's liveness ping and its echo
// on a peer link a minute into a run, neither end spelled out (the parent
// layout wrote each in 15 bytes).
func TestHeartbeatFrameSizes(t *testing.T) {
	link := Link{Local: "node0", Remote: "node1"}
	for _, m := range []heartbeat{{T: int64(time.Minute)}, {T: int64(time.Minute), Echo: true}} {
		frame, err := AppendMessage(link, nil, "node0", "node1", m)
		if err != nil {
			t.Fatal(err)
		}
		if want := 9; len(frame) != want {
			t.Errorf("%+v: %d bytes, want %d", m, len(frame), want)
		}
	}
}
