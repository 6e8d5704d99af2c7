package transport

import (
	"fmt"
	"sync"

	"repro/internal/wire"
)

// Codec versioning. Every frame body opens with one version byte so the
// wire format can evolve without a flag day: a reader dispatches on the
// byte and rejects versions it does not know, and a future codec (or a
// rollback to gob) is one more case, not a protocol fork.
//
//	codecGob    — the payload is gob(Envelope), the v0 format. Still
//	              emitted for message types without a hand-rolled codec
//	              (tests, experiments); decodable forever.
//	codecBinary — hand-rolled binary: from, to, wire type id, payload.
//	              The hot path: no reflection, no type names on the
//	              wire, decode aliases the frame buffer.
//	codecBatch  — a fan-out batch: several codecBinary/codecGob bodies
//	              in one frame, one length-prefix + one syscall for a
//	              whole flush tick's worth of ops.
const (
	codecGob    byte = 0
	codecBinary byte = 1
	codecBatch  byte = 2
)

// BinaryMessage is implemented by wire types that encode themselves
// with the hand-rolled binary codec. WireID returns the type's
// registered id (unique across all protocol packages; see the range
// allocation below), AppendBinary appends the payload bytes.
//
// Wire id ranges, so packages cannot collide:
//
//	 1–9   transport (hello, heartbeat)
//	10–19  internal/server client protocol
//	20–39  internal/quorum
//	40–49  internal/gossip
//	50–59  internal/session
//	60–69  internal/benchsuite
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
// packages call it from init alongside Register; a duplicate id is a
// cross-package collision and panics loudly.
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
// prefix): binary when the message implements BinaryMessage, gob
// otherwise.
func appendBody(dst []byte, e Envelope) ([]byte, error) {
	if bm, ok := e.Msg.(BinaryMessage); ok {
		dst = append(dst, codecBinary)
		dst = wire.AppendString(dst, e.From)
		dst = wire.AppendString(dst, e.To)
		dst = wire.AppendUvarint(dst, uint64(bm.WireID()))
		return bm.AppendBinary(dst), nil
	}
	return appendGobBody(dst, e)
}

// readers recycles the Reader handed to the registered decoders. They
// are called through a table, so a Reader made per envelope would escape
// to the heap on every message.
var readers = sync.Pool{New: func() any { return new(wire.Reader) }}

func decodeBinaryBody(r *wire.Reader) (Envelope, error) {
	var e Envelope
	e.From = r.ID()
	e.To = r.ID()
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

// decodeBody decodes one envelope body (as produced by appendBody).
func decodeBody(b []byte) (Envelope, error) {
	if len(b) == 0 {
		return Envelope{}, fmt.Errorf("transport: empty frame body")
	}
	switch b[0] {
	case codecBinary:
		r := readers.Get().(*wire.Reader)
		r.Reset(b[1:])
		e, err := decodeBinaryBody(r)
		r.Reset(nil) // a pooled Reader must not pin the frame
		readers.Put(r)
		return e, err
	case codecGob:
		return decodeGobBody(b[1:])
	case codecBatch:
		return Envelope{}, fmt.Errorf("transport: unexpected batch frame")
	default:
		return Envelope{}, fmt.Errorf("transport: unknown codec version %d", b[0])
	}
}
