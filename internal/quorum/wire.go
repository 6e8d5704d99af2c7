package quorum

import (
	"repro/internal/clock"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Wire codecs: every message a quorum node or client exchanges, so the
// protocol runs unchanged over the TCP transport. Each type carries a
// hand-rolled binary encoding: no reflection, and decode aliases the
// frame buffer.
//
// Wire ids 12–31, 40–49 and 60–69 belong to this package (see
// transport.BinaryMessage). 12–31 hold every message a get, a put or
// the background work beside them sends; 40–49 the membership protocol
// (membership.go); 60–69 what only a lagging replica, a full re-ask or
// a range transfer sends. Ids of retired messages are reused: the repo
// does not run mixed-version clusters.
const (
	widClientPut uint16 = 12 + iota
	widClientGet
	widPutResp
	widGetResp
	widReplicaPut
	widReplicaPutAck
	widReplicaDigest
	widReplicaDigestResp
	widReplicaGetResp
	widShipBatch
	widShipAck
	widResPing
	widResPong
	widAEReq
	widAEResp
	widGeoStamp
)

const (
	widRingUpdate uint16 = 40 + iota
	widRingAck
	widBeginTransfer
	widTransferComplete
	widEpochSettled
	widRingPull
)

const (
	widReplicaGet uint16 = 60 + iota
	widReplicaNotReady
	widTransferReq
	widReplicaNotOwner
)

// appendEntry / readEntry encode one sibling version: its DVV and the
// replicated record (value bytes or tombstone).
func appendEntry(dst []byte, e clock.SiblingEntry[record]) []byte {
	dst = wire.AppendDVV(dst, e.DVV)
	dst = wire.AppendBytes(dst, e.Value.Value)
	return wire.AppendBool(dst, e.Value.Deleted)
}

func readEntry(r *wire.Reader) clock.SiblingEntry[record] {
	var e clock.SiblingEntry[record]
	e.DVV = r.DVV()
	e.Value.Value = r.Bytes()
	e.Value.Deleted = r.Bool()
	return e
}

// readEntryDot reads one entry as readEntry does and keeps only its dot,
// stepping over its context and value without building either.
func readEntryDot(r *wire.Reader) clock.Dot {
	d := clock.Dot{Node: r.ID(), Counter: r.Uvarint()}
	r.SkipVector()
	r.Bytes() // the value, aliased, not copied
	r.Bool()  // the tombstone bit
	return d
}

// entrySize returns len(appendEntry(nil, e)).
func entrySize(e clock.SiblingEntry[record]) int {
	return wire.SizeDVV(e.DVV) + wire.SizeBytes(e.Value.Value) + 1
}

// entriesSize returns len(appendEntries(nil, es)).
func entriesSize(es []clock.SiblingEntry[record]) int {
	if es == nil {
		return 1
	}
	n := wire.UvarintLen(uint64(len(es)) + 1)
	for _, e := range es {
		n += entrySize(e)
	}
	return n
}

func appendEntries(dst []byte, es []clock.SiblingEntry[record]) []byte {
	if es == nil {
		return append(dst, 0)
	}
	dst = wire.AppendUvarint(dst, uint64(len(es))+1)
	for _, e := range es {
		dst = appendEntry(dst, e)
	}
	return dst
}

func readEntries(r *wire.Reader) []clock.SiblingEntry[record] {
	n, ok := r.ListLen()
	if !ok {
		return nil
	}
	out := make([]clock.SiblingEntry[record], 0, n)
	for i := 0; i < n; i++ {
		out = append(out, readEntry(r))
	}
	if r.Err() != nil {
		return nil
	}
	return out
}

func appendAEEntries(dst []byte, es []aeEntry) []byte {
	if es == nil {
		return append(dst, 0)
	}
	dst = wire.AppendUvarint(dst, uint64(len(es))+1)
	for _, e := range es {
		dst = wire.AppendString(dst, e.Key)
		dst = appendEntries(dst, e.Entries)
	}
	return dst
}

func readAEEntries(r *wire.Reader) []aeEntry {
	n, ok := r.ListLen()
	if !ok {
		return nil
	}
	out := make([]aeEntry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, aeEntry{Key: r.String(), Entries: readEntries(r)})
	}
	if r.Err() != nil {
		return nil
	}
	return out
}

func (clientPut) WireID() uint16 { return widClientPut }
func (m clientPut) AppendBinary(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, m.ID)
	dst = wire.AppendString(dst, m.Key)
	dst = wire.AppendBytes(dst, m.Value)
	dst = wire.AppendBool(dst, m.Deleted)
	return wire.AppendVector(dst, m.Context)
}

func (clientGet) WireID() uint16 { return widClientGet }
func (m clientGet) AppendBinary(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, m.ID)
	dst = wire.AppendString(dst, m.Key)
	return wire.AppendVarint(dst, int64(m.R))
}

func (putResp) WireID() uint16 { return widPutResp }
func (m putResp) AppendBinary(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, m.ID)
	dst = wire.AppendVector(dst, m.Context)
	dst = wire.AppendString(dst, m.Err)
	return wire.AppendBool(dst, m.Sloppy)
}

func (getResp) WireID() uint16 { return widGetResp }
func (m getResp) AppendBinary(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, m.ID)
	dst = wire.AppendByteSlices(dst, m.Values)
	dst = wire.AppendVector(dst, m.Context)
	dst = wire.AppendString(dst, m.Err)
	return wire.AppendVarint(dst, int64(m.Replicas))
}

func (replicaPut) WireID() uint16 { return widReplicaPut }
func (m replicaPut) AppendBinary(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, m.ID)
	dst = wire.AppendString(dst, m.Key)
	dst = appendEntry(dst, m.Entry)
	dst = wire.AppendString(dst, m.Hint)
	return wire.AppendBool(dst, m.Repair)
}

func (replicaPutAck) WireID() uint16 { return widReplicaPutAck }
func (m replicaPutAck) AppendBinary(dst []byte) []byte {
	return wire.AppendUvarint(dst, m.ID)
}

func (replicaGet) WireID() uint16 { return widReplicaGet }
func (m replicaGet) AppendBinary(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, m.ID)
	return wire.AppendString(dst, m.Key)
}

func (replicaDigest) WireID() uint16 { return widReplicaDigest }
func (m replicaDigest) AppendBinary(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, m.ID)
	return wire.AppendString(dst, m.Key)
}

func (replicaGetResp) WireID() uint16 { return widReplicaGetResp }
func (m replicaGetResp) AppendBinary(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, m.ID)
	return appendEntries(dst, m.Entries)
}

// A digest answer is its dots: uvarint ID ‖ count ‖ (node, counter)...
func (replicaDigestResp) WireID() uint16 { return widReplicaDigestResp }
func (m replicaDigestResp) AppendBinary(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, m.ID)
	dst = wire.AppendUvarint(dst, uint64(len(m.Dots)))
	for _, d := range m.Dots {
		dst = wire.AppendString(dst, d.Node)
		dst = wire.AppendUvarint(dst, d.Counter)
	}
	return dst
}

func readDots(r *wire.Reader) []clock.Dot {
	n := r.Count()
	if n == 0 {
		return nil
	}
	out := make([]clock.Dot, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, clock.Dot{Node: r.ID(), Counter: r.Uvarint()})
	}
	if r.Err() != nil {
		return nil
	}
	return out
}

func (replicaNotReady) WireID() uint16 { return widReplicaNotReady }
func (m replicaNotReady) AppendBinary(dst []byte) []byte {
	return wire.AppendUvarint(dst, m.ID)
}

func appendStreamID(dst []byte, id streamID) []byte {
	return wire.AppendUvarint(wire.AppendUvarint(dst, uint64(id.Kind)), id.N)
}

func readStreamID(r *wire.Reader) streamID {
	return streamID{Kind: streamKind(r.Uvarint()), N: r.Uvarint()}
}

func (shipBatch) WireID() uint16 { return widShipBatch }
func (m shipBatch) AppendBinary(dst []byte) []byte {
	dst = appendStreamID(dst, m.Stream)
	dst = wire.AppendUvarint(dst, m.Seq)
	dst = appendAEEntries(dst, m.Entries)
	dst = wire.AppendString(dst, m.Cursor)
	dst = wire.AppendBool(dst, m.Done)
	return m.Stamp.AppendBinary(dst)
}

func (shipAck) WireID() uint16 { return widShipAck }
func (m shipAck) AppendBinary(dst []byte) []byte {
	return wire.AppendUvarint(appendStreamID(dst, m.Stream), m.Seq)
}

func (resPing) WireID() uint16                 { return widResPing }
func (resPing) AppendBinary(dst []byte) []byte { return dst }

func (resPong) WireID() uint16                 { return widResPong }
func (resPong) AppendBinary(dst []byte) []byte { return dst }

func (aeReq) WireID() uint16 { return widAEReq }
func (m aeReq) AppendBinary(dst []byte) []byte {
	return wire.AppendInts(storage.AppendHashPairs(dst, m.Pairs), m.Buckets)
}

func (aeResp) WireID() uint16 { return widAEResp }
func (m aeResp) AppendBinary(dst []byte) []byte {
	return wire.AppendInts(dst, m.Buckets)
}

func (transferReq) WireID() uint16 { return widTransferReq }
func (m transferReq) AppendBinary(dst []byte) []byte {
	dst = wire.AppendVarint(dst, int64(m.Idx))
	dst = wire.AppendUvarint(dst, m.Stream)
	dst = wire.AppendUvarint(dst, m.Start)
	dst = wire.AppendUvarint(dst, m.End)
	return wire.AppendString(dst, m.Cursor)
}

func (replicaNotOwner) WireID() uint16 { return widReplicaNotOwner }
func (m replicaNotOwner) AppendBinary(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, m.ID)
	return wire.AppendUvarint(dst, m.Seq)
}

func (geoStamp) WireID() uint16 { return widGeoStamp }
func (m geoStamp) AppendBinary(dst []byte) []byte {
	dst = wire.AppendString(dst, m.Zone)
	return wire.AppendUvarint(dst, uint64(m.HighTS))
}

func readGeoStamp(r *wire.Reader) geoStamp {
	return geoStamp{Zone: r.String(), HighTS: int64(r.Uvarint())}
}

func appendStrings(dst []byte, ss []string) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = wire.AppendString(dst, s)
	}
	return dst
}

func readStrings(r *wire.Reader) []string {
	n := r.Uvarint()
	if n == 0 {
		return nil
	}
	if n > uint64(r.Len()) { // each string costs >= 1 byte
		r.Poison()
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.String())
	}
	return out
}

func (ringUpdate) WireID() uint16 { return widRingUpdate }
func (m ringUpdate) AppendBinary(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, m.Seq)
	dst = wire.AppendString(dst, m.Joining)
	dst = wire.AppendString(dst, m.Leaving)
	dst = appendStrings(dst, m.Members)
	dst = appendStrings(dst, m.Addrs)
	dst = wire.AppendBool(dst, m.Settled)
	dst = wire.AppendBool(dst, m.Reply)
	return appendStrings(dst, m.Zones)
}

func (ringAck) WireID() uint16                   { return widRingAck }
func (m ringAck) AppendBinary(dst []byte) []byte { return wire.AppendUvarint(dst, m.Seq) }

func (beginTransfer) WireID() uint16                   { return widBeginTransfer }
func (m beginTransfer) AppendBinary(dst []byte) []byte { return wire.AppendUvarint(dst, m.Seq) }

func (transferComplete) WireID() uint16                   { return widTransferComplete }
func (m transferComplete) AppendBinary(dst []byte) []byte { return wire.AppendUvarint(dst, m.Seq) }

func (epochSettled) WireID() uint16                   { return widEpochSettled }
func (m epochSettled) AppendBinary(dst []byte) []byte { return wire.AppendUvarint(dst, m.Seq) }

func (ringPull) WireID() uint16                 { return widRingPull }
func (ringPull) AppendBinary(dst []byte) []byte { return dst }

func init() {
	transport.RegisterBinary(widClientPut, func(r *wire.Reader) transport.Message {
		return clientPut{ID: r.Uvarint(), Key: r.String(), Value: r.Bytes(), Deleted: r.Bool(), Context: r.Vector()}
	})
	transport.RegisterBinary(widClientGet, func(r *wire.Reader) transport.Message {
		return clientGet{ID: r.Uvarint(), Key: r.String(), R: int(r.Varint())}
	})
	transport.RegisterBinary(widPutResp, func(r *wire.Reader) transport.Message {
		return putResp{ID: r.Uvarint(), Context: r.Vector(), Err: r.String(), Sloppy: r.Bool()}
	})
	transport.RegisterBinary(widGetResp, func(r *wire.Reader) transport.Message {
		return getResp{ID: r.Uvarint(), Values: r.ByteSlices(), Context: r.Vector(), Err: r.String(), Replicas: int(r.Varint())}
	})
	transport.RegisterBinary(widReplicaPut, func(r *wire.Reader) transport.Message {
		return replicaPut{ID: r.Uvarint(), Key: r.String(), Entry: readEntry(r), Hint: r.String(), Repair: r.Bool()}
	})
	transport.RegisterBinary(widReplicaPutAck, func(r *wire.Reader) transport.Message {
		return replicaPutAck{ID: r.Uvarint()}
	})
	transport.RegisterBinary(widReplicaGet, func(r *wire.Reader) transport.Message {
		return replicaGet{ID: r.Uvarint(), Key: r.String()}
	})
	transport.RegisterBinary(widReplicaDigest, func(r *wire.Reader) transport.Message {
		return replicaDigest{ID: r.Uvarint(), Key: r.String()}
	})
	transport.RegisterBinary(widReplicaGetResp, func(r *wire.Reader) transport.Message {
		return replicaGetResp{ID: r.Uvarint(), Entries: readEntries(r)}
	})
	transport.RegisterBinary(widReplicaDigestResp, func(r *wire.Reader) transport.Message {
		return replicaDigestResp{ID: r.Uvarint(), Dots: readDots(r)}
	})
	transport.RegisterBinary(widReplicaNotReady, func(r *wire.Reader) transport.Message {
		return replicaNotReady{ID: r.Uvarint()}
	})
	transport.RegisterBinary(widShipBatch, func(r *wire.Reader) transport.Message {
		return shipBatch{
			Stream: readStreamID(r), Seq: r.Uvarint(), Entries: readAEEntries(r),
			Cursor: r.String(), Done: r.Bool(), Stamp: readGeoStamp(r),
		}
	})
	transport.RegisterBinary(widShipAck, func(r *wire.Reader) transport.Message {
		return shipAck{Stream: readStreamID(r), Seq: r.Uvarint()}
	})
	transport.RegisterBinary(widResPing, func(r *wire.Reader) transport.Message {
		return resPing{}
	})
	transport.RegisterBinary(widResPong, func(r *wire.Reader) transport.Message {
		return resPong{}
	})
	transport.RegisterBinary(widAEReq, func(r *wire.Reader) transport.Message {
		return aeReq{Pairs: storage.ReadHashPairs(r), Buckets: r.Ints()}
	})
	transport.RegisterBinary(widAEResp, func(r *wire.Reader) transport.Message {
		return aeResp{Buckets: r.Ints()}
	})
	transport.RegisterBinary(widTransferReq, func(r *wire.Reader) transport.Message {
		return transferReq{Idx: int(r.Varint()), Stream: r.Uvarint(), Start: r.Uvarint(), End: r.Uvarint(), Cursor: r.String()}
	})
	transport.RegisterBinary(widReplicaNotOwner, func(r *wire.Reader) transport.Message {
		return replicaNotOwner{ID: r.Uvarint(), Seq: r.Uvarint()}
	})
	transport.RegisterBinary(widGeoStamp, func(r *wire.Reader) transport.Message { return readGeoStamp(r) })
	transport.RegisterBinary(widRingUpdate, func(r *wire.Reader) transport.Message {
		return ringUpdate{Seq: r.Uvarint(), Joining: r.String(), Leaving: r.String(), Members: readStrings(r),
			Addrs: readStrings(r), Settled: r.Bool(), Reply: r.Bool(), Zones: readStrings(r)}
	})
	transport.RegisterBinary(widRingAck, func(r *wire.Reader) transport.Message { return ringAck{Seq: r.Uvarint()} })
	transport.RegisterBinary(widBeginTransfer, func(r *wire.Reader) transport.Message { return beginTransfer{Seq: r.Uvarint()} })
	transport.RegisterBinary(widTransferComplete, func(r *wire.Reader) transport.Message { return transferComplete{Seq: r.Uvarint()} })
	transport.RegisterBinary(widEpochSettled, func(r *wire.Reader) transport.Message { return epochSettled{Seq: r.Uvarint()} })
	transport.RegisterBinary(widRingPull, func(r *wire.Reader) transport.Message { return ringPull{} })
}
