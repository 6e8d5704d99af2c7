package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/wire"
)

// Wire format: a connection carries a stream of self-delimiting frames,
// one envelope each (codec.go):
//
//	stream := frame...
//	frame  := | length: uvarint | envelope |
//
// The length counts the envelope's bytes. It is written as its minimal
// uvarint and is at most MaxFrameSize, so it takes one to four bytes: one
// for an envelope under 128 bytes. A reader checks it before it
// allocates, and a frame that fails to decode ends the connection, never
// the reader's process.
//
// There is no batch frame. A writer batches by writing every frame it
// has queued in one write(2) (tcp.go, and the server's client
// connections), and a reader takes every complete frame its buffer holds
// into one allocation (ReadStream). Each frame is self-contained:
// stateless frames survive reconnects, can be re-sent verbatim, and
// decode independently of arrival order.
//
// The hello that opens a connection names its two ends, and so its link.
// It is read with ReadFrame exactly, so whatever the dialer wrote behind
// it is left for the connection's stream reader. The frame probes in
// bench/probes.go (transport.frame_encode_ns, frame_decode_ns,
// frame_decode_allocs) track the cost of AppendFrame and DecodeFrame.

// MaxFrameSize bounds a single frame (16 MiB). A peer announcing a
// larger frame is protocol-corrupt and the connection is dropped —
// the standard defense against length-prefix poisoning.
const MaxFrameSize = 16 << 20

// lengthBytes is the most bytes a frame length takes: the uvarint of
// MaxFrameSize.
const lengthBytes = 4

// errLength reports a frame length that is not a minimal uvarint of at
// most lengthBytes bytes.
var errLength = errors.New("transport: malformed frame length")

// Envelope is the unit every frame carries: a routed protocol message.
// From is the sending node id, To the destination node id on the
// receiving runtime. Neither is written: a frame reads back with its
// link's ends.
type Envelope struct {
	From, To string
	Msg      Message
}

// Link names the two ends of a connection as its hello fixed them:
// Local is this side's node, Remote the node at the other end. A TCP
// transport hosts only its own node, and a client speaks only to the
// node it dialed, so every frame on a connection travels from one end of
// its link to the other: a reader fills in From as its Remote and To as
// its Local. On the zero link both read as "".
type Link struct {
	Local, Remote string
}

// AppendFrame encodes e as one frame appended to dst and returns the
// extended slice. e's addresses are not written. A message that does not
// implement BinaryMessage cannot leave the process: Loopback and the
// simulator deliver it by reference, TCP reports it. A failed encode
// appends nothing.
func AppendFrame(dst []byte, e Envelope) ([]byte, error) {
	bm, ok := e.Msg.(BinaryMessage)
	if !ok {
		return dst, fmt.Errorf("transport: %T has no wire codec (it does not implement BinaryMessage)", e.Msg)
	}
	return AppendMessage(dst, bm)
}

// AppendMessage frames m, for a caller that holds m as its concrete type:
// the bytes AppendFrame writes for it, without boxing m into an
// Envelope's Message.
func AppendMessage[M BinaryMessage](dst []byte, m M) ([]byte, error) {
	mark := len(dst)
	dst = wire.AppendUvarint(append(dst, 0), uint64(m.WireID()))
	return finishFrame(m.AppendBinary(dst), mark)
}

// finishFrame writes the length of the envelope encoded behind the
// one-byte room reserved at mark. A longer length shifts the envelope
// right to make room; a frame over MaxFrameSize is cut back to mark.
func finishFrame(dst []byte, mark int) ([]byte, error) {
	n := len(dst) - mark - 1
	if n > MaxFrameSize {
		return dst[:mark], fmt.Errorf("transport: frame of %d bytes exceeds %d", n, MaxFrameSize)
	}
	if k := wire.UvarintLen(uint64(n)); k > 1 {
		var room [lengthBytes]byte
		dst = append(dst, room[:k-1]...)
		copy(dst[mark+k:], dst[mark+1:])
	}
	binary.PutUvarint(dst[mark:], uint64(n))
	return dst, nil
}

// WriteFrame encodes e and writes one frame to w.
func WriteFrame(w io.Writer, e Envelope) (int, error) {
	b, err := AppendFrame(nil, e)
	if err != nil {
		return 0, err
	}
	return w.Write(b)
}

// ReadBufferSize sizes the buffered reader each connection's stream
// reader reads through: a small frame, and often the frames behind it,
// arrive in one read syscall.
const ReadBufferSize = 16 << 10

// readLength reads a frame length from r and returns it with the number
// of bytes it took. A stream that ends before the first byte returns
// io.EOF; one that ends inside the length, io.ErrUnexpectedEOF.
func readLength(r io.ByteReader) (int, int, error) {
	var n uint64
	for i := 0; i < lengthBytes; i++ {
		c, err := r.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, 0, err
		}
		n |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			if c == 0 && i > 0 {
				return 0, 0, errLength
			}
			if n > MaxFrameSize {
				return 0, 0, fmt.Errorf("transport: frame length %d exceeds %d", n, MaxFrameSize)
			}
			return int(n), i + 1, nil
		}
	}
	return 0, 0, errLength
}

// frameLength reads the length at the head of b by readLength's rules,
// without the io.ByteReader that would cost DecodeFrame an allocation.
func frameLength(b []byte) (int, int, error) {
	n, k := binary.Uvarint(b)
	if k == 0 && len(b) < lengthBytes {
		return 0, 0, io.ErrUnexpectedEOF
	}
	if k <= 0 || k != wire.UvarintLen(n) {
		return 0, 0, errLength
	}
	if n > MaxFrameSize {
		return 0, 0, fmt.Errorf("transport: frame length %d exceeds %d", n, MaxFrameSize)
	}
	return int(n), k, nil
}

// unexpected reports a stream that ended inside a frame.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// byteAtATime reads one byte per read from r.
type byteAtATime struct {
	r io.Reader
	b [1]byte
}

func (o *byteAtATime) ReadByte() (byte, error) {
	_, err := io.ReadFull(o.r, o.b[:])
	return o.b[0], err
}

// ReadFrame reads one frame from r on the zero link, and nothing behind
// it: the length is read a byte at a time. A handshake reads the hello
// with it from the bare connection, so the frames the dialer wrote in
// the same write are still there for the stream reader that takes the
// connection next.
func ReadFrame(r io.Reader) (Envelope, int, error) {
	n, h, err := readLength(&byteAtATime{r: r})
	if err != nil {
		return Envelope{}, 0, err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return Envelope{}, 0, unexpected(err)
	}
	e, err := Link{}.decodeEnvelope(b)
	if err != nil {
		return Envelope{}, 0, err
	}
	return e, h + n, nil
}

// readBlock reads the next frame from r, and behind it every frame r
// already holds in full, into one buffer: the frames as written, length
// included, and the number of bytes read.
func readBlock(r *bufio.Reader) ([]byte, int, error) {
	n, h, err := readLength(r)
	if err != nil {
		return nil, 0, err
	}
	size := h + n
	if ahead := r.Buffered(); ahead > n {
		b, _ := r.Peek(ahead)
		for off := n; off < len(b); {
			m, k, err := frameLength(b[off:])
			if err != nil || m > len(b)-off-k {
				break // the next read takes it, or reports it
			}
			off += k + m
			size = h + off
		}
	}
	block := make([]byte, size)
	binary.PutUvarint(block, uint64(n))
	if _, err := io.ReadFull(r, block[h:]); err != nil {
		return nil, 0, unexpected(err)
	}
	return block, size, nil
}

// ReadStream reads the frames written on the other end of link l: the
// next one, and every one behind it that r already holds in full. It
// appends their envelopes to envs (pass a reused slice to avoid the
// allocation) and returns the bytes read. The frames share one
// allocation, which the decoded messages alias: a message kept pins the
// frames read with it.
func (l Link) ReadStream(r *bufio.Reader, envs []Envelope) ([]Envelope, int, error) {
	block, n, err := readBlock(r)
	if err != nil {
		return envs, 0, err
	}
	for len(block) > 0 {
		e, k, err := l.decodeFrame(block)
		if err != nil {
			return envs, 0, err
		}
		envs = append(envs, e)
		block = block[k:]
	}
	return envs, n, nil
}

// DecodeFrame decodes one frame from b (length included) on the zero
// link, returning the envelope and bytes consumed. It decodes in place:
// the decoded message aliases b, so b must not be reused while the
// message is in use. Exposed for benchmarks and tests that frame into
// memory.
func DecodeFrame(b []byte) (Envelope, int, error) {
	return Link{}.decodeFrame(b)
}

func (l Link) decodeFrame(b []byte) (Envelope, int, error) {
	n, k, err := frameLength(b)
	if err != nil {
		return Envelope{}, 0, err
	}
	if n > len(b)-k {
		return Envelope{}, 0, io.ErrUnexpectedEOF
	}
	e, err := l.decodeEnvelope(b[k : k+n])
	if err != nil {
		return Envelope{}, 0, err
	}
	return e, k + n, nil
}

// hello is the first frame on every dialed connection: ID names the
// dialer and To the node it dialed, the two ends of the connection's
// link. Kind is "peer" for transport links and "client" for the server's
// client protocol (internal/server).
type hello struct {
	Kind string
	ID   string
	To   string
}

func (hello) WireID() uint16 { return 1 }

func (m hello) AppendBinary(dst []byte) []byte {
	dst = wire.AppendString(dst, m.Kind)
	dst = wire.AppendString(dst, m.ID)
	return wire.AppendString(dst, m.To)
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
// connections to TCPConfig.OnClientConn. A client names the node it
// dialed "".
func ClientHello(id string) Message { return hello{Kind: "client", ID: id} }

func init() {
	RegisterBinary(1, func(r *wire.Reader) Message {
		return hello{Kind: r.String(), ID: r.String(), To: r.String()}
	})
	RegisterBinary(2, func(r *wire.Reader) Message {
		return heartbeat{T: r.Varint(), Echo: r.Bool()}
	})
}
