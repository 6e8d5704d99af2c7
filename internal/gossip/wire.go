package gossip

import (
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Wire codecs: the anti-entropy and rumor messages, so gossip nodes
// converse unchanged over the TCP transport. storage.HashPair and Write
// travel inside them by value; appendWrite/appendWrites are also the
// node's journal and checkpoint encoding (persist.go).
//
// Wire ids 3–9 belong to this package (see transport.BinaryMessage): each
// message here is per-operation traffic, so each takes a one-byte tag.
const (
	widSyncStep uint16 = 3 + iota
	widSyncResp
	widSyncPush
	widRumor
)

func appendWrite(dst []byte, w Write) []byte {
	dst = wire.AppendString(dst, w.Key)
	dst = wire.AppendBytes(dst, w.Value)
	dst = wire.AppendVarint(dst, w.TS.Wall)
	dst = wire.AppendUvarint(dst, uint64(w.TS.Logical))
	dst = wire.AppendString(dst, w.TS.Node)
	return wire.AppendBool(dst, w.Deleted)
}

func readWrite(r *wire.Reader) Write {
	var w Write
	w.Key = r.String()
	w.Value = r.Bytes()
	w.TS.Wall = r.Varint()
	w.TS.Logical = uint32(r.Uvarint())
	w.TS.Node = r.String()
	w.Deleted = r.Bool()
	return w
}

func appendWrites(dst []byte, ws []Write) []byte {
	if ws == nil {
		return append(dst, 0)
	}
	dst = wire.AppendUvarint(dst, uint64(len(ws))+1)
	for _, w := range ws {
		dst = appendWrite(dst, w)
	}
	return dst
}

func readWrites(r *wire.Reader) []Write {
	n, ok := r.ListLen()
	if !ok {
		return nil
	}
	out := make([]Write, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, readWrite(r))
	}
	if r.Err() != nil {
		return nil
	}
	return out
}

func (syncStep) WireID() uint16 { return widSyncStep }
func (m syncStep) AppendBinary(dst []byte) []byte {
	dst = storage.AppendHashPairs(dst, m.Pairs)
	return wire.AppendInts(dst, m.Buckets)
}

func (syncResp) WireID() uint16 { return widSyncResp }
func (m syncResp) AppendBinary(dst []byte) []byte {
	dst = wire.AppendInts(dst, m.Buckets)
	return appendWrites(dst, m.Writes)
}

func (syncPush) WireID() uint16 { return widSyncPush }
func (m syncPush) AppendBinary(dst []byte) []byte {
	return appendWrites(dst, m.Writes)
}

func (rumor) WireID() uint16 { return widRumor }
func (m rumor) AppendBinary(dst []byte) []byte {
	dst = appendWrite(dst, m.W)
	return wire.AppendVarint(dst, int64(m.TTL))
}

func init() {
	transport.RegisterBinary(widSyncStep, func(r *wire.Reader) transport.Message {
		return syncStep{Pairs: storage.ReadHashPairs(r), Buckets: r.Ints()}
	})
	transport.RegisterBinary(widSyncResp, func(r *wire.Reader) transport.Message {
		return syncResp{Buckets: r.Ints(), Writes: readWrites(r)}
	})
	transport.RegisterBinary(widSyncPush, func(r *wire.Reader) transport.Message {
		return syncPush{Writes: readWrites(r)}
	})
	transport.RegisterBinary(widRumor, func(r *wire.Reader) transport.Message {
		return rumor{W: readWrite(r), TTL: int(r.Varint())}
	})
}
