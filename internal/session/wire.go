package session

import (
	"repro/internal/clock"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Wire codecs: every message a session server or client exchanges, so
// the protocol runs unchanged over the TCP transport. Unexported
// message types are fine: both ends run this same package.
// appendSessWrite/appendSessWrites are also the server's journal and
// checkpoint encoding (persist.go).
//
// Wire ids 50–59 belong to this package (see transport.BinaryMessage).
const (
	widAEReq uint16 = 50 + iota
	widAEResp
	widSRead
	widSReadResp
	widSWrite
	widSWriteResp
)

func appendSessWrite(dst []byte, w write) []byte {
	dst = wire.AppendString(dst, w.ID.Origin)
	dst = wire.AppendUvarint(dst, w.ID.Seq)
	dst = wire.AppendString(dst, w.Key)
	dst = wire.AppendBytes(dst, w.Val)
	dst = wire.AppendBool(dst, w.Deleted)
	dst = wire.AppendUvarint(dst, w.TS.Time)
	dst = wire.AppendString(dst, w.TS.Node)
	dst = wire.AppendString(dst, w.Client)
	return wire.AppendUvarint(dst, w.CliSeq)
}

func readSessWrite(r *wire.Reader) write {
	var w write
	w.ID.Origin = r.String()
	w.ID.Seq = r.Uvarint()
	w.Key = r.String()
	w.Val = r.Bytes()
	w.Deleted = r.Bool()
	w.TS.Time = r.Uvarint()
	w.TS.Node = r.String()
	w.Client = r.String()
	w.CliSeq = r.Uvarint()
	return w
}

func appendSessWrites(dst []byte, ws []write) []byte {
	if ws == nil {
		return append(dst, 0)
	}
	dst = wire.AppendUvarint(dst, uint64(len(ws))+1)
	for _, w := range ws {
		dst = appendSessWrite(dst, w)
	}
	return dst
}

func readSessWrites(r *wire.Reader) []write {
	n, ok := r.ListLen()
	if !ok {
		return nil
	}
	out := make([]write, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, readSessWrite(r))
	}
	if r.Err() != nil {
		return nil
	}
	return out
}

func (aeReq) WireID() uint16 { return widAEReq }
func (m aeReq) AppendBinary(dst []byte) []byte {
	return wire.AppendVector(dst, m.V)
}

func (aeResp) WireID() uint16 { return widAEResp }
func (m aeResp) AppendBinary(dst []byte) []byte {
	return appendSessWrites(dst, m.Writes)
}

func (sread) WireID() uint16 { return widSRead }
func (m sread) AppendBinary(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, m.ID)
	dst = wire.AppendString(dst, m.Key)
	return wire.AppendVector(dst, m.MinVec)
}

func (sreadResp) WireID() uint16 { return widSReadResp }
func (m sreadResp) AppendBinary(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, m.ID)
	dst = wire.AppendString(dst, m.Key)
	dst = wire.AppendBytes(dst, m.Val)
	dst = wire.AppendBool(dst, m.OK)
	dst = wire.AppendVector(dst, m.V)
	return wire.AppendBool(dst, m.TimedOut)
}

func (swrite) WireID() uint16 { return widSWrite }
func (m swrite) AppendBinary(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, m.ID)
	dst = wire.AppendString(dst, m.Key)
	dst = wire.AppendBytes(dst, m.Val)
	dst = wire.AppendBool(dst, m.Deleted)
	return wire.AppendVector(dst, m.MinVec)
}

func (swriteResp) WireID() uint16 { return widSWriteResp }
func (m swriteResp) AppendBinary(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, m.ID)
	dst = wire.AppendString(dst, m.WID.Origin)
	dst = wire.AppendUvarint(dst, m.WID.Seq)
	dst = wire.AppendVector(dst, m.V)
	return wire.AppendBool(dst, m.TimedOut)
}

func init() {
	transport.RegisterBinary(widAEReq, func(r *wire.Reader) transport.Message {
		return aeReq{V: r.Vector()}
	})
	transport.RegisterBinary(widAEResp, func(r *wire.Reader) transport.Message {
		return aeResp{Writes: readSessWrites(r)}
	})
	transport.RegisterBinary(widSRead, func(r *wire.Reader) transport.Message {
		return sread{ID: r.Uvarint(), Key: r.String(), MinVec: r.Vector()}
	})
	transport.RegisterBinary(widSReadResp, func(r *wire.Reader) transport.Message {
		return sreadResp{ID: r.Uvarint(), Key: r.String(), Val: r.Bytes(), OK: r.Bool(), V: r.Vector(), TimedOut: r.Bool()}
	})
	transport.RegisterBinary(widSWrite, func(r *wire.Reader) transport.Message {
		return swrite{ID: r.Uvarint(), Key: r.String(), Val: r.Bytes(), Deleted: r.Bool(), MinVec: r.Vector()}
	})
	transport.RegisterBinary(widSWriteResp, func(r *wire.Reader) transport.Message {
		m := swriteResp{ID: r.Uvarint()}
		m.WID.Origin = r.String()
		m.WID.Seq = r.Uvarint()
		m.V = r.Vector()
		m.TimedOut = r.Bool()
		return m
	})
}

// Token is the portable form of a session: the read and write vectors
// that define its guarantee floors. A live client sends its token with
// every request and joins each answer's into it; it hands the token to
// the application on disconnect and sets it again after reconnecting —
// to any server — and read-your-writes, monotonic reads, writes-follow-
// reads, and monotonic writes keep holding across the gap, because the
// floors are vectors, not server identities.
type Token struct {
	Read  clock.Vector
	Write clock.Vector
}

// floor is the vector a server must dominate before it serves an
// operation of the session t under guarantees g: a read when read is
// set, else a write.
func (t Token) floor(g Guarantees, read bool) clock.Vector {
	floor := clock.Vector{}
	if (read && g.ReadYourWrites) || (!read && g.MonotonicWrites) {
		floor = floor.Merge(t.Write)
	}
	if (read && g.MonotonicReads) || (!read && g.WritesFollowReads) {
		floor = floor.Merge(t.Read)
	}
	return floor
}

// served raises t by what the operation resp answers did, unless it
// timed out: a read joins in the vector of the server that served it (the
// standard over-approximation of "the writes relevant to this read"), a
// write adds its write id.
func (t *Token) served(resp transport.Message) {
	switch m := resp.(type) {
	case sreadResp:
		if !m.TimedOut {
			t.Read = join(t.Read, m.V)
		}
	case swriteResp:
		if !m.TimedOut && t.Write.Get(m.WID.Origin) < m.WID.Seq {
			t.Write = t.Write.With(m.WID.Origin, m.WID.Seq)
		}
	}
}

// Join is the token that covers both t and o, each vector the
// component-wise maximum. Neither t nor o changes.
func (t Token) Join(o Token) Token {
	return Token{Read: join(t.Read, o.Read), Write: join(t.Write, o.Write)}
}

// join is the merge of dst and v, an empty vector if both are nil.
func join(dst, v clock.Vector) clock.Vector {
	if dst == nil {
		dst = clock.Vector{}
	}
	return dst.Merge(v)
}

// Token snapshots the session state: later operations replace the
// token's vectors and never write into the returned ones.
func (c *Client) Token() Token { return c.tok }
