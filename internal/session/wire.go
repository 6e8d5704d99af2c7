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
// that define its guarantee floors. A client hands its token to the
// application on disconnect and merges it back after reconnecting — to
// any server — and read-your-writes, monotonic reads, writes-follow-
// reads, and monotonic writes keep holding across the gap, because the
// floors are vectors, not server identities.
type Token struct {
	Read  clock.Vector
	Write clock.Vector
}

// Token snapshots the session state (copies; later operations don't
// mutate the returned vectors).
func (c *Client) Token() Token {
	return Token{Read: c.readVec.Copy(), Write: c.writeVec.Copy()}
}

// MergeToken folds a previously issued token into this session. Merging
// is a vector join — monotone and idempotent — so replaying a stale or
// duplicate token is harmless; the session floor only ever rises.
func (c *Client) MergeToken(t Token) {
	if t.Read != nil {
		c.readVec.Merge(t.Read)
	}
	if t.Write != nil {
		c.writeVec.Merge(t.Write)
	}
}
