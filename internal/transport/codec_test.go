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

// linkRoundTrip frames e as the Local end of link l writes it and reads
// it on the link's other end: the message comes back as written, from
// l.Local to l.Remote, whatever addresses e held.
func linkRoundTrip(t testing.TB, l Link, e Envelope) {
	t.Helper()
	frame, err := AppendFrame(nil, e)
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
	if want := (Envelope{From: l.Local, To: l.Remote, Msg: e.Msg}); len(got) != 1 || !reflect.DeepEqual(got[0], want) {
		t.Fatalf("round trip on %+v:\n got  %#v\n want %#v", l, got, want)
	}
}

// appendStream frames envs back to back, as a writer writes the
// envelopes it took from its queue.
func appendStream(dst []byte, envs []Envelope) ([]byte, error) {
	for _, e := range envs {
		var err error
		if dst, err = AppendFrame(dst, e); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// reverse is link l as its other end holds it.
func reverse(l Link) Link { return Link{Local: l.Remote, Remote: l.Local} }

// genLink draws a link for e: each end is empty, e's address on that
// side, or another name.
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
	// A frame carries no addresses, so the envelopes have none: each
	// reads back on the zero link exactly as it was written.
	return []Envelope{
		{Msg: hello{Kind: str(), ID: str(), To: str()}},
		{Msg: heartbeat{T: rng.Int63() - rng.Int63(), Echo: rng.Intn(2) == 1}},
		{Msg: bigMsg{B: val()}},
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
// type, and nothing is appended.
func TestMessageWithoutCodecIsAnEncodeError(t *testing.T) {
	type uncoded struct{ A string }
	bad := Envelope{From: "a", To: "b", Msg: uncoded{A: "x"}}
	prefix := []byte("kept")
	for name, encode := range map[string]func() ([]byte, error){
		"frame":       func() ([]byte, error) { return AppendFrame(prefix, bad) },
		"in a stream": func() ([]byte, error) { return appendStream(prefix, []Envelope{bad}) },
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
// client link. No frame carries an address, so each is the bytes of its
// message alone, and the reader fills in its link's ends, whatever
// addresses the envelope was written with.
func TestLinkRoundTrip(t *testing.T) {
	peer := Link{Local: "node0", Remote: "node1"}
	client := Link{Local: "cli"} // a client names the node it dialed ""
	server := reverse(client)
	hb := heartbeat{T: 99}
	cases := []struct {
		name string
		link Link
		envs []Envelope
	}{
		{"peer, both ends", peer, []Envelope{{From: "node0", To: "node1", Msg: hb}}},
		{"peer, addresses of the opposite ends", peer, []Envelope{{From: "node1", To: "node0", Msg: hb}}},
		// An address beside the node's own, such as a gateway actor's,
		// cannot travel: the frame arrives from and to the link's ends.
		{"peer, gateway sender", peer, []Envelope{{From: "node0#gw1", To: "node1", Msg: echoMsg{N: 1}}}},
		{"peer, gateway receiver", peer, []Envelope{{From: "node0", To: "node1#gw2", Msg: echoMsg{N: 2}}}},
		{"peer, mixed batch", peer, []Envelope{
			{From: "node0", To: "node1", Msg: hb},
			{From: "node0", To: "node1", Msg: bigMsg{B: []byte("x")}},
			{From: "node0", To: "node1", Msg: echoMsg{N: 3}},
			{From: "node0", To: "node1", Msg: heartbeat{Echo: true}},
		}},
		{"client request, empty To", client, []Envelope{{From: "cli", To: "", Msg: echoMsg{N: 4}}}},
		{"server answer", server, []Envelope{{From: "", To: "cli", Msg: echoReply{N: 4}}}},
		{"peer, empty addresses", peer, []Envelope{{From: "", To: "", Msg: hb}}},
		// A connection's hello names both ends, in its payload.
		{"hello, on the zero link", Link{}, []Envelope{{Msg: hello{Kind: "peer", ID: "node0", To: "node1"}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stream, err := appendStream(nil, tc.envs)
			if err != nil {
				t.Fatal(err)
			}
			var bare []byte
			for _, e := range tc.envs {
				if bare, err = AppendMessage(bare, e.Msg.(BinaryMessage)); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(stream, bare) {
				t.Errorf("the frames carry %d bytes beside their messages' %d", len(stream), len(bare))
			}
			got, _, err := reverse(tc.link).ReadStream(bufio.NewReader(bytes.NewReader(stream)), nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range tc.envs {
				want := Envelope{From: tc.link.Local, To: tc.link.Remote, Msg: e.Msg}
				if i >= len(got) || !reflect.DeepEqual(got[i], want) {
					t.Fatalf("read back\n %#v\nwant envelope %d\n %#v", got, i, want)
				}
				linkRoundTrip(t, tc.link, e)
			}
		})
	}
}

// TestFrameBytes pins frames byte for byte: a length, a one-byte wire id
// and the payload, 6, 19, 3 + 6 and 3 bytes. The test messages' wire ids
// are above 31; below 128 an id takes one byte. The layout before this
// one spelled out every address but an empty one, behind a tag that
// shifted the wire id two bits left, and took 18, 25, 20 + 23 and 8.
func TestFrameBytes(t *testing.T) {
	cases := []struct {
		envs []Envelope
		want string
	}{
		{[]Envelope{{Msg: heartbeat{T: 12345}}},
			"\x05\x02\xf2\xc0\x01\x00"},
		{[]Envelope{{Msg: hello{Kind: "peer", ID: "node0", To: "node1"}}},
			"\x12\x01\x04peer\x05node0\x05node1"},
		{[]Envelope{{Msg: echoMsg{N: 7}}, {Msg: bigMsg{B: []byte("abc")}}},
			"\x02\x20\x0e" + "\x05\x22\x04abc"},
		{[]Envelope{{Msg: echoMsg{N: -3}}},
			"\x02\x20\x05"},
	}
	for i, tc := range cases {
		got, err := appendStream(nil, tc.envs)
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
	stream, err := appendStream(nil, envs)
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
		if stream, err = appendStream(stream, envs); err != nil {
			t.Fatal(err)
		}
		want = append(want, envs...)
	}
	big := Envelope{Msg: bigMsg{B: make([]byte, 3*ReadBufferSize)}}
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
		env := envelopeBody(uint64(bigMsg{}.WireID()), e.Msg.(bigMsg).AppendBinary(nil))
		hdr := binary.AppendUvarint(nil, uint64(len(env)))
		if len(hdr) != i+1 {
			t.Fatalf("envelope %d: %d bytes have a %d-byte length, want %d", i, len(env), len(hdr), i+1)
		}
		want = append(append(want, hdr...), env...)
	}
	prefix := []byte("kept")
	got, err := appendStream(prefix, envs)
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
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if buf, err = appendStream(buf[:0], envs); err != nil {
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
	stream, err := appendStream(nil, genEnvs(3))
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

// envelopeBody builds an envelope by hand: the wire id and the payload.
func envelopeBody(id uint64, payload []byte) []byte {
	return append(binary.AppendUvarint(nil, id), payload...)
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
	helloPayload := hello{Kind: "peer", ID: "n1", To: "n0"}.AppendBinary(nil)
	heartbeatEnv := envelopeBody(2, heartbeat{T: 1}.AppendBinary(nil))
	good := frameFor(heartbeatEnv)
	oversized := binary.AppendUvarint(nil, MaxFrameSize+1)
	// A heartbeat frame as a layout two formats back wrote it: a 4-byte
	// big-endian length, then a codec byte.
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
		{"binary body truncated header", frameFor([]byte{0xff, 0xff})},
		{"unknown wire id", frameFor(envelopeBody(9999, nil))},
		{"wire id out of range", frameFor(envelopeBody(1<<20, nil))},
		// Frames of the layout before this one, whose tag announced a
		// hello's from or to address and lacked it: a node of that
		// version is refused, not misread.
		{"from present, missing", frameFor([]byte{1<<2 | 2})},
		{"to present, missing", frameFor([]byte{1<<2 | 1})},
		{"payload truncated", frameFor(envelopeBody(1, helloPayload[:1]))},
		{"trailing bytes", frameFor(append(envelopeBody(1, helloPayload), 0xff))},
		{"length overrun in payload", frameFor(envelopeBody(1, []byte{0xff, 0xff, 0x03}))},
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
	if stream, err := appendStream(nil, genEnvs(5)); err == nil {
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
		if stream, err := appendStream(nil, envs); err == nil {
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
// a minute into a run (the layout that spelled out both addresses wrote
// each in 15 bytes).
func TestHeartbeatFrameSizes(t *testing.T) {
	for _, m := range []heartbeat{{T: int64(time.Minute)}, {T: int64(time.Minute), Echo: true}} {
		frame, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if want := 9; len(frame) != want {
			t.Errorf("%+v: %d bytes, want %d", m, len(frame), want)
		}
	}
}
