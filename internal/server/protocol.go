// Package server hosts a consistency model behind the TCP transport as
// a networked node: the storage node itself (gossip, quorum, or session
// — unchanged protocol code), the serving of client connections as
// protocol operations on the actor runtime, and an HTTP sidecar
// exposing Prometheus-style /metrics and a /healthz view of the
// phi-accrual failure detector. cmd/ecserver wraps it as a daemon and
// cmd/ecctl drives local clusters of them.
package server

import (
	"repro/internal/clock"
	"repro/internal/session"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The client protocol rides the same length-prefixed binary framing as
// the peer transport: a connection handshakes with
// hello{Kind:"client"}, then exchanges Request/Response frames. Each
// request carries a connection-local sequence number and each response
// echoes it, so a client may pipeline: keep many requests in flight and
// match completions by Seq rather than by position. The server starts
// requests in arrival order and answers each as it completes. A serial
// client — one outstanding request, like the v0 protocol — is just the
// one-deep special case and needs no changes.

// Wire ids 10–19 belong to this package (see transport.BinaryMessage).
const (
	widRequest uint16 = 10 + iota
	widResponse
)

// Request is one client operation.
type Request struct {
	// Seq is the connection-local sequence number; the matching Response
	// echoes it. A serial client can leave it zero.
	Seq uint64
	// Op names the operation, one the ops table lists (server.go).
	Op    string
	Key   string
	Value []byte
	// Token is the client's session (session model only; nil elsewhere):
	// the node serves the operation once its state dominates the floor
	// the token sets, so the guarantees hold even if the previous
	// operations happened over another connection to another node — this
	// is how read-your-writes survives reconnects. A pointer: a decoded
	// request is boxed, and two vectors inline would take every request
	// of every model a size class up.
	Token *session.Token
	// SLA selects the consistency tier for a get (geo.Kind wire values:
	// 0 strong, 1 bounded, 2 eventual). Zero keeps the configured-quorum
	// strong path, so pre-SLA clients are unchanged.
	SLA uint8
	// BoundMs is the staleness bound in milliseconds for the bounded
	// tier: the read is served at the eventual tier only while the node's
	// measured cross-zone staleness stays within it.
	BoundMs int64
	// Zone is the client's zone hint ("add-node" carries the joiner's
	// zone here).
	Zone string
	// Context is the causal context a quorum put or delete writes over,
	// as a Response returned it (opaque to the client; empty writes blind).
	Context []byte
}

// Response completes one client operation.
type Response struct {
	// Seq echoes the request's sequence number. The one-byte fields sit
	// in pairs: an answer is boxed for its reader, and padding would
	// take it a size class up.
	Seq uint64
	Err string
	OK  bool
	// Found/Value answer a get (Values carries quorum siblings when
	// concurrent writes left more than one).
	Found  bool
	Value  []byte
	Values [][]byte
	// Token is the request's token raised by what the operation did (as
	// it came, if the operation timed out); the client joins it into its
	// own and echoes that on its next request (possibly elsewhere). Nil
	// outside the session model, as Request.Token is.
	Token *session.Token
	// Node is the id of the node that served the operation.
	Node string
	// NotOwner marks a typed ownership refusal: this node has left the
	// ring (or is draining of writes) under membership epoch Epoch, and
	// the client should retry against a current member. State is the
	// node's elasticity state ("ok", "catching-up", "draining", "left");
	// it also rides on the answers of "add-node" and "decommission".
	Epoch    uint64
	State    string
	NotOwner bool
	// Tier is the tier actually delivered (a bounded request may escalate
	// to strong); StaleMs is the serving node's measured max cross-zone
	// replication staleness at serve time (SLA gets); Zone is the serving
	// node's zone.
	Tier    uint8
	StaleMs int64
	Zone    string
	// Context is the key's causal context after a quorum get, put or
	// delete: what the get read, or what covers the write, failed or not.
	Context []byte
}

func (Request) WireID() uint16 { return widRequest }
func (m Request) AppendBinary(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, m.Seq)
	dst = wire.AppendString(dst, m.Op)
	dst = wire.AppendString(dst, m.Key)
	dst = wire.AppendBytes(dst, m.Value)
	dst = appendToken(dst, m.Token)
	dst = wire.AppendUvarint(dst, uint64(m.SLA))
	dst = wire.AppendVarint(dst, m.BoundMs)
	dst = wire.AppendString(dst, m.Zone)
	return wire.AppendBytes(dst, m.Context)
}

// The byte after Value holds Found in bit 0, as a bool always did, and in
// bit 1 that Value is Values[0]: a quorum get answers with its first
// sibling in both fields, one slice. Such a Value is written absent and
// the decoder points it back at Values[0], so the value crosses the wire
// once. Every other answer keeps its bytes.
const (
	respFound      = 1 << 0
	respValueFirst = 1 << 1
)

// valueIsFirst reports whether m.Value is the very slice m.Values[0], by
// identity: contents are never compared.
func (m Response) valueIsFirst() bool {
	return len(m.Values) > 0 && len(m.Value) > 0 && len(m.Value) == len(m.Values[0]) &&
		&m.Value[0] == &m.Values[0][0]
}

func (Response) WireID() uint16 { return widResponse }
func (m Response) AppendBinary(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, m.Seq)
	dst = wire.AppendBool(dst, m.OK)
	dst = wire.AppendString(dst, m.Err)
	var flags byte
	if m.Found {
		flags |= respFound
	}
	if m.valueIsFirst() {
		flags |= respValueFirst
		dst = wire.AppendBytes(dst, nil)
	} else {
		dst = wire.AppendBytes(dst, m.Value)
	}
	dst = append(dst, flags)
	dst = wire.AppendByteSlices(dst, m.Values)
	dst = appendToken(dst, m.Token)
	dst = wire.AppendString(dst, m.Node)
	dst = wire.AppendBool(dst, m.NotOwner)
	dst = wire.AppendUvarint(dst, m.Epoch)
	dst = wire.AppendString(dst, m.State)
	dst = wire.AppendVarint(dst, m.StaleMs)
	dst = wire.AppendUvarint(dst, uint64(m.Tier))
	dst = wire.AppendString(dst, m.Zone)
	return wire.AppendBytes(dst, m.Context)
}

func init() {
	transport.RegisterBinary(widRequest, func(r *wire.Reader) transport.Message {
		return Request{
			Seq:     r.Uvarint(),
			Op:      r.ID(), // a handful of names: interned, like node ids
			Key:     r.String(),
			Value:   r.Bytes(),
			Token:   readToken(r),
			SLA:     uint8(r.Uvarint()),
			BoundMs: r.Varint(),
			Zone:    r.String(),
			Context: r.Bytes(),
		}
	})
	transport.RegisterBinary(widResponse, func(r *wire.Reader) transport.Message {
		m := Response{Seq: r.Uvarint(), OK: r.Bool(), Err: r.String(), Value: r.Bytes()}
		flags := r.Uvarint()
		m.Found = flags&respFound != 0
		m.Values = r.ByteSlices()
		switch {
		case flags&^(respFound|respValueFirst) != 0:
			r.Poison()
		case flags&respValueFirst == 0:
		case m.Value == nil && len(m.Values) > 0:
			m.Value = m.Values[0]
		default:
			r.Poison() // the mark promises an absent Value and a first sibling
		}
		m.Token = readToken(r)
		m.Node = r.ID()
		m.NotOwner = r.Bool()
		m.Epoch = r.Uvarint()
		m.State = r.String()
		m.StaleMs = r.Varint()
		m.Tier = uint8(r.Uvarint())
		m.Zone = r.String()
		m.Context = r.Bytes()
		return m
	})
}

// appendToken appends a session token as its two vectors, both absent
// for nil.
func appendToken(dst []byte, t *session.Token) []byte {
	var tok session.Token
	if t != nil {
		tok = *t
	}
	return wire.AppendVector(wire.AppendVector(dst, tok.Read), tok.Write)
}

// readToken reads what appendToken wrote: nil when both vectors are
// absent.
func readToken(r *wire.Reader) *session.Token {
	read, write := r.Vector(), r.Vector()
	if read == nil && write == nil {
		return nil
	}
	return &session.Token{Read: read, Write: write}
}

// decodeContext reads the causal context a request carries (nil for
// none): the vector is the request's own, for the write to keep.
func decodeContext(b []byte) (clock.Vector, error) {
	if len(b) == 0 {
		return nil, nil
	}
	r := wire.NewReader(b)
	v := r.Vector()
	return v, r.Close()
}
