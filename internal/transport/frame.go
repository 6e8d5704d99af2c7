package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"repro/internal/wire"
)

// Wire format: every frame is
//
//	| length: uint32 big-endian | body |
//	body := | codec version: byte | version-specific payload |
//	binary payload := | from: string | to: string | wire id: uvarint | message |
//	batch payload  := | count: uvarint | (length: uvarint, binary body)... |
//
// where a string is its uvarint length and its bytes. The length prefix
// (rather than any codec's own stream framing) keeps frame boundaries
// explicit — a reader can size-check, skip, or hand off a frame without
// decoding it, and a partially written frame never desynchronizes the
// stream past the next boundary. The version byte dispatches the body
// decoder (see codec.go): hand-rolled binary for the registered wire
// types, and batch frames that pack a whole flush tick of envelopes
// behind one prefix. Each body is self-contained — stateless frames
// survive reconnects, can be hedged or re-sent verbatim, and decode
// independently of arrival order.
//
// Addresses the connection already implies are elided (see Link): on a
// link, an envelope from the writer's node carries an empty from and
// one to the reader's node an empty to, and the reader fills both back
// in from its end of the link. Every other address — a gateway actor
// such as node0#gw1, and every address of the hello — is spelled out.
// The package-level frame functions use the zero Link and elide
// nothing. The frame probes in bench/probes.go
// (transport.frame_encode_ns, frame_decode_ns, frame_decode_allocs)
// track the cost.

// MaxFrameSize bounds a single frame (16 MiB). A peer announcing a
// larger frame is protocol-corrupt and the connection is dropped —
// the standard defense against length-prefix poisoning.
const MaxFrameSize = 16 << 20

// Envelope is the unit every frame carries: a routed protocol message.
// From is the sending node id, To the destination node id on the
// receiving runtime.
type Envelope struct {
	From, To string
	Msg      Message
}

// Link names the two ends of a connection as its hello fixed them:
// Local is this side's node, Remote the node at the other end. Frames
// written on a link leave out what its reader already knows: From is
// written empty when it is Local, To when it is Remote. The reader's
// link is the same one seen from the other end (its Local is the
// writer's Remote), so reading fills an empty From with Remote and an
// empty To with Local. An address that is itself empty therefore reads
// as the link's end; the zero Link elides and fills nothing.
type Link struct {
	Local, Remote string
}

// appendAddrs appends an envelope's from and to as the link writes them.
func (l Link) appendAddrs(dst []byte, from, to string) []byte {
	if from == l.Local {
		from = ""
	}
	if to == l.Remote {
		to = ""
	}
	return wire.AppendString(wire.AppendString(dst, from), to)
}

// readAddrs reads an envelope's from and to as the link wrote them.
func (l Link) readAddrs(r *wire.Reader) (from, to string) {
	if from = r.ID(); from == "" {
		from = l.Remote
	}
	if to = r.ID(); to == "" {
		to = l.Local
	}
	return from, to
}

// finishFrame fills in the length prefix reserved at mark.
func finishFrame(dst []byte, mark int) ([]byte, error) {
	n := len(dst) - mark - 4
	if n > MaxFrameSize {
		return dst[:mark], fmt.Errorf("transport: frame of %d bytes exceeds %d", n, MaxFrameSize)
	}
	binary.BigEndian.PutUint32(dst[mark:mark+4], uint32(n))
	return dst, nil
}

// AppendFrame encodes e as one frame appended to dst and returns the
// extended slice. Every address is spelled out.
func AppendFrame(dst []byte, e Envelope) ([]byte, error) {
	return Link{}.appendFrame(dst, e)
}

func (l Link) appendFrame(dst []byte, e Envelope) ([]byte, error) {
	mark := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	body, err := l.appendBody(dst, e)
	if err != nil {
		return dst[:mark], err
	}
	return finishFrame(body, mark)
}

// AppendMessage frames an envelope from → to carrying m on link l, for a
// caller that holds m as its concrete type: the bytes l.AppendBatch
// writes for that one envelope, without boxing m into an Envelope's
// Message.
func AppendMessage[M BinaryMessage](l Link, dst []byte, from, to string, m M) ([]byte, error) {
	mark := len(dst)
	dst = append(dst, 0, 0, 0, 0, codecBinary)
	dst = l.appendAddrs(dst, from, to)
	dst = wire.AppendUvarint(dst, uint64(m.WireID()))
	return finishFrame(m.AppendBinary(dst), mark)
}

// ReadBufferSize sizes the buffered reader each connection's frame
// reader reads through: a small frame's length prefix and body, and
// often the frames behind it, arrive in one read syscall.
const ReadBufferSize = 16 << 10

// AppendBatch encodes envelopes as a single batch frame on link l,
// appended to dst: one length prefix, one version byte, then each
// envelope's body behind its own uvarint length. This is the
// coordinator fan-out optimization — every op queued for a peer at
// flush time travels in one frame and one write. A single envelope is
// framed plain, so batching is free when there is nothing to batch.
func (l Link) AppendBatch(dst []byte, envs []Envelope) ([]byte, error) {
	if len(envs) == 1 {
		return l.appendFrame(dst, envs[0])
	}
	mark := len(dst)
	dst = append(dst, 0, 0, 0, 0, codecBatch)
	dst = wire.AppendUvarint(dst, uint64(len(envs)))
	for _, e := range envs {
		// Each member is encoded in place and then shifted right by its
		// length header, which is only known once the body is.
		at := len(dst)
		out, err := l.appendBody(dst, e)
		if err != nil {
			return dst[:mark], err
		}
		var hdr [binary.MaxVarintLen64]byte
		h := binary.PutUvarint(hdr[:], uint64(len(out)-at))
		out = append(out, hdr[:h]...) // room for the header
		copy(out[at+h:], out[at:len(out)-h])
		copy(out[at:], hdr[:h])
		dst = out
	}
	return finishFrame(dst, mark)
}

// WriteFrame encodes e and writes one frame to w.
func WriteFrame(w io.Writer, e Envelope) (int, error) {
	b, err := AppendFrame(nil, e)
	if err != nil {
		return 0, err
	}
	return w.Write(b)
}

// frameHeaders recycles the 4-byte length prefixes readFrameBody reads
// into: a buffer handed to an io.Reader escapes, so a local array would
// cost one object per inbound frame.
var frameHeaders = sync.Pool{New: func() any { return new([4]byte) }}

// readFrameBody reads one length-prefixed frame body from r into a
// fresh buffer (decoded messages may alias it).
func readFrameBody(r io.Reader) ([]byte, int, error) {
	hdr := frameHeaders.Get().(*[4]byte)
	_, err := io.ReadFull(r, hdr[:])
	n := binary.BigEndian.Uint32(hdr[:])
	frameHeaders.Put(hdr)
	if err != nil {
		return nil, 0, err
	}
	if n > MaxFrameSize {
		return nil, 0, fmt.Errorf("transport: frame length %d exceeds %d", n, MaxFrameSize)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, 0, err
	}
	return body, int(n) + 4, nil
}

// ReadFrame reads one single-envelope frame from r and decodes it. A
// batch frame is an error here — handshakes and other strictly
// one-at-a-time exchanges use ReadFrame; stream readers that must
// accept batches use ReadBatch.
func ReadFrame(r io.Reader) (Envelope, int, error) {
	body, n, err := readFrameBody(r)
	if err != nil {
		return Envelope{}, 0, err
	}
	e, err := Link{}.decodeBody(body)
	if err != nil {
		return Envelope{}, 0, err
	}
	return e, n, nil
}

// ReadBatch reads one frame written on the other end of link l and
// returns every envelope it carries: a one-element slice for a plain
// frame, all members for a batch frame. envs is appended to (pass a
// reused slice to avoid the allocation).
func (l Link) ReadBatch(r io.Reader, envs []Envelope) ([]Envelope, int, error) {
	body, n, err := readFrameBody(r)
	if err != nil {
		return envs, 0, err
	}
	envs, err = l.decodeBodies(body, envs)
	if err != nil {
		return envs, 0, err
	}
	return envs, n, nil
}

// decodeBodies decodes a frame body into its envelopes, appending to
// envs.
func (l Link) decodeBodies(body []byte, envs []Envelope) ([]Envelope, error) {
	if len(body) == 0 {
		return envs, fmt.Errorf("transport: empty frame body")
	}
	if body[0] != codecBatch {
		e, err := l.decodeBody(body)
		if err != nil {
			return envs, err
		}
		return append(envs, e), nil
	}
	rd := wire.NewReader(body[1:])
	count := rd.Uvarint()
	if rd.Err() != nil || count > uint64(rd.Len()) {
		return envs, fmt.Errorf("transport: malformed batch header")
	}
	for i := uint64(0); i < count; i++ {
		sub := rd.Raw()
		if rd.Err() != nil {
			return envs, fmt.Errorf("transport: truncated batch member %d/%d", i, count)
		}
		e, err := l.decodeBody(sub)
		if err != nil {
			return envs, err
		}
		envs = append(envs, e)
	}
	if err := rd.Close(); err != nil {
		return envs, fmt.Errorf("transport: trailing bytes after batch")
	}
	return envs, nil
}

// DecodeFrame decodes one frame from b (length prefix included),
// returning the envelope and bytes consumed, with every address as
// spelled out in the frame. It decodes in place: the
// decoded message aliases b, so b must not be reused while the message
// is in use. Exposed for benchmarks and tests that frame into memory.
func DecodeFrame(b []byte) (Envelope, int, error) {
	if len(b) < 4 {
		return Envelope{}, 0, io.ErrUnexpectedEOF
	}
	n := binary.BigEndian.Uint32(b)
	if n > MaxFrameSize {
		return Envelope{}, 0, fmt.Errorf("transport: frame length %d exceeds %d", n, MaxFrameSize)
	}
	if uint64(len(b)-4) < uint64(n) {
		return Envelope{}, 0, io.ErrUnexpectedEOF
	}
	e, err := Link{}.decodeBody(b[4 : 4+n])
	if err != nil {
		return Envelope{}, 0, err
	}
	return e, int(n) + 4, nil
}

// hello is the first frame on every dialed connection, identifying the
// dialer. Kind is "peer" for transport links and "client" for the
// server's client protocol (internal/server).
type hello struct {
	Kind string
	ID   string
}

func (hello) WireID() uint16 { return 1 }

func (m hello) AppendBinary(dst []byte) []byte {
	dst = wire.AppendString(dst, m.Kind)
	return wire.AppendString(dst, m.ID)
}

// heartbeat is the transport-level liveness ping. T is the sender's
// clock (Runtime.Now) at send time; the echo carries it back unchanged
// so the pinger measures a true round trip on its own clock.
type heartbeat struct {
	T    int64 // sender clock, nanoseconds
	Echo bool
}

func (heartbeat) WireID() uint16 { return 2 }

func (m heartbeat) AppendBinary(dst []byte) []byte {
	dst = wire.AppendVarint(dst, m.T)
	return wire.AppendBool(dst, m.Echo)
}

// ClientHello returns the handshake message a client-protocol
// connection opens with; the transport's accept loop hands such
// connections to TCPConfig.OnClientConn.
func ClientHello(id string) Message { return hello{Kind: "client", ID: id} }

func init() {
	RegisterBinary(1, func(r *wire.Reader) Message {
		return hello{Kind: r.String(), ID: r.String()}
	})
	RegisterBinary(2, func(r *wire.Reader) Message {
		return heartbeat{T: r.Varint(), Echo: r.Bool()}
	})
}
