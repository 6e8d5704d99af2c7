package transport

import (
	"fmt"
	"sync"

	"repro/internal/wire"
)

// Codec versioning. Every frame body opens with one version byte so the
// wire format can evolve without a flag day: a reader dispatches on the
// byte and rejects versions it does not know, and a future codec is one
// more case, not a protocol fork.
//
//	codecBinary — hand-rolled binary: from, to, wire type id, payload
//	              (from and to empty where the link implies them).
//	              No reflection, no type names on the wire, decode
//	              aliases the frame buffer.
//	codecBatch  — a fan-out batch: several codecBinary bodies in one
//	              frame, one length-prefix + one syscall for a whole
//	              flush tick's worth of ops.
//
// Byte 0 was gob(Envelope) and is retired: no message type rode it
// outside tests, and gob's decoder is not hardened against adversarial
// input, so a frame that opens with it is refused like any unknown version.
const (
	codecBinary byte = 1
	codecBatch  byte = 2
)

// BinaryMessage is implemented by every message type that travels over
// TCP. WireID returns the type's registered id (unique across all
// protocol packages; see the range allocation below), AppendBinary
// appends the payload bytes.
//
// Wire id ranges, so packages cannot collide:
//
//	 1–9   transport (hello, heartbeat; 3–5 are its tests' messages)
//	10–19  internal/server client protocol
//	20–39  internal/quorum
//	40–49  internal/gossip
//	50–59  internal/session
type BinaryMessage interface {
	Message
	WireID() uint16
	AppendBinary(dst []byte) []byte
}

// binDecoders maps wire id -> payload decoder. A decoder reads its
// fields from r and returns the message; field errors surface through
// the Reader's sticky error, checked by the framing layer after the
// decoder returns (along with full consumption of the payload).
var (
	binMu       sync.RWMutex
	binDecoders = make(map[uint16]func(r *wire.Reader) Message)
)

// RegisterBinary installs the payload decoder for wire id. Protocol
// packages call it from init, so hosting them on TCP needs no extra
// wiring; a duplicate id is a cross-package collision and panics loudly.
func RegisterBinary(id uint16, dec func(r *wire.Reader) Message) {
	binMu.Lock()
	defer binMu.Unlock()
	if _, dup := binDecoders[id]; dup {
		panic(fmt.Sprintf("transport: wire id %d registered twice", id))
	}
	binDecoders[id] = dec
}

func binaryDecoder(id uint16) (func(r *wire.Reader) Message, bool) {
	binMu.RLock()
	dec, ok := binDecoders[id]
	binMu.RUnlock()
	return dec, ok
}

// appendBody appends one envelope body (version byte onward, no length
// prefix). A message that does not implement BinaryMessage cannot leave
// the process: Loopback and the simulator deliver it by reference, TCP
// reports it.
func (l Link) appendBody(dst []byte, e Envelope) ([]byte, error) {
	bm, ok := e.Msg.(BinaryMessage)
	if !ok {
		return dst, fmt.Errorf("transport: %T has no wire codec (it does not implement BinaryMessage)", e.Msg)
	}
	dst = append(dst, codecBinary)
	dst = l.appendAddrs(dst, e.From, e.To)
	dst = wire.AppendUvarint(dst, uint64(bm.WireID()))
	return bm.AppendBinary(dst), nil
}

// readers recycles the Reader handed to the registered decoders. They
// are called through a table, so a Reader made per envelope would escape
// to the heap on every message.
var readers = sync.Pool{New: func() any { return new(wire.Reader) }}

func (l Link) decodeBinaryBody(r *wire.Reader) (Envelope, error) {
	var e Envelope
	e.From, e.To = l.readAddrs(r)
	id := r.Uvarint()
	if err := r.Err(); err != nil {
		return Envelope{}, fmt.Errorf("transport: decode envelope header: %w", err)
	}
	if id > 0xffff {
		return Envelope{}, fmt.Errorf("transport: wire id %d out of range", id)
	}
	dec, ok := binaryDecoder(uint16(id))
	if !ok {
		return Envelope{}, fmt.Errorf("transport: unknown wire id %d", id)
	}
	e.Msg = dec(r)
	if err := r.Close(); err != nil {
		return Envelope{}, fmt.Errorf("transport: decode wire id %d: %w", id, err)
	}
	return e, nil
}

// decodeBody decodes one envelope body (as produced by appendBody on
// the other end of l).
func (l Link) decodeBody(b []byte) (Envelope, error) {
	if len(b) == 0 {
		return Envelope{}, fmt.Errorf("transport: empty frame body")
	}
	switch b[0] {
	case codecBinary:
		r := readers.Get().(*wire.Reader)
		r.Reset(b[1:])
		e, err := l.decodeBinaryBody(r)
		r.Reset(nil) // a pooled Reader must not pin the frame
		readers.Put(r)
		return e, err
	case codecBatch:
		return Envelope{}, fmt.Errorf("transport: unexpected batch frame")
	default:
		return Envelope{}, fmt.Errorf("transport: unknown codec version %d", b[0])
	}
}
