package transport

import (
	"fmt"
	"sync"

	"repro/internal/wire"
)

// The envelope codec: what one frame carries (frame.go puts the length
// in front). An envelope is
//
//	| tag: uvarint | from: string | to: string | message |
//	tag := wire id << 2 | from present << 1 | to present
//
// where a string is its uvarint length and its bytes, and from and to are
// there only when their presence bit is set. An address the link already
// knows is absent, and reads back as the link's end (see Link). The
// message is the payload its type's AppendBinary writes, decoded by the
// decoder RegisterBinary installed for the wire id: no reflection, no type
// names on the wire, and decode aliases the frame buffer. A wire id below
// 32 makes the tag one byte.
//
// There is no codec version byte. Wire messages are unversioned and a
// cluster upgrades as a whole, so a new layout replaces the old one on
// every node at once instead of running beside it.
const (
	toPresent   = 1
	fromPresent = 2
	tagIDShift  = 2
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

// appendHeader appends an envelope's tag and the addresses link l does
// not leave out.
func (l Link) appendHeader(dst []byte, from, to string, id uint16) []byte {
	tag := uint64(id) << tagIDShift
	if from != l.Local {
		tag |= fromPresent
	}
	if to != l.Remote {
		tag |= toPresent
	}
	dst = wire.AppendUvarint(dst, tag)
	if tag&fromPresent != 0 {
		dst = wire.AppendString(dst, from)
	}
	if tag&toPresent != 0 {
		dst = wire.AppendString(dst, to)
	}
	return dst
}

// readers recycles the Reader handed to the registered decoders. They
// are called through a table, so a Reader made per envelope would escape
// to the heap on every message.
var readers = sync.Pool{New: func() any { return new(wire.Reader) }}

// decodeEnvelope decodes one envelope as the other end of l wrote it.
func (l Link) decodeEnvelope(b []byte) (Envelope, error) {
	r := readers.Get().(*wire.Reader)
	r.Reset(b)
	e, err := l.readEnvelope(r)
	r.Reset(nil) // a pooled Reader must not pin the frame
	readers.Put(r)
	return e, err
}

func (l Link) readEnvelope(r *wire.Reader) (Envelope, error) {
	e := Envelope{From: l.Remote, To: l.Local}
	tag := r.Uvarint()
	if tag&fromPresent != 0 {
		e.From = r.ID()
	}
	if tag&toPresent != 0 {
		e.To = r.ID()
	}
	if err := r.Err(); err != nil {
		return Envelope{}, fmt.Errorf("transport: decode envelope header: %w", err)
	}
	id := tag >> tagIDShift
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
