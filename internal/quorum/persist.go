package quorum

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/clock"
	"repro/internal/ring"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Durability hooks. A quorum node's durable state is the per-key sibling
// sets and the hinted handoff queues (a hint is an acked write whose
// only copy may be here), beside the progress of its transfers and geo
// streams. Each mutation journals one walRecord; coordination state
// (pending reads/writes, AE trees) is transient and rebuilt from
// traffic. A node keeps no dot counter: every write is named by the
// request of the client that made it (see clientDot).
//
// Replay idempotence: entry installs dedup by dot inside Siblings.Add,
// hint stores dedup by dot in storeHint, hint acks are monotone deletes.

// walRecord is one journaled mutation; exactly one field is set.
type walRecord struct {
	Entry        *entryRec
	Hint         *hintRec
	HintAck      *hintAckRec
	TransferDone *transferDoneRec
	GeoAck       *geoAckRec
}

// entryRec installs one version into a key's sibling set.
type entryRec struct {
	Key   string
	Entry clock.SiblingEntry[record]
}

// hintRec queues one version for an unreachable intended replica.
type hintRec struct {
	Intended string
	Key      string
	Entry    clock.SiblingEntry[record]
}

// hintAckRec records the intended replica acknowledging a key's hints.
type hintAckRec struct {
	Intended string
	Key      string
}

// transferDoneRec marks one inbound transfer range complete for a
// membership epoch, so a restarted node resumes catch-up from the next
// range instead of re-pulling finished arcs (the range bounds are
// recorded for the audit trail; resume matches on Seq+Idx, both sides
// of which derive deterministically from ring.DiffN).
type transferDoneRec struct {
	Seq        uint64
	Idx        int
	Start, End uint64
}

// Record framing: [0xEC][8-byte LE key hash][kind][fields] for
// key-addressed records, [0xED][kind][fields] for the rest, fields in the
// wire codec. The header lets parallel replay route a raw record to its
// shard in O(1) without decoding it (see ReplayDomain). The kind bytes sit
// in 0x80..0xF7 like storedFormat, where a record written before this
// layout has the length byte of its gob stream — and a journal from
// before sharding, bare gob, starts with that length byte — so either is
// refused with wire.ErrFormatTooOld instead of being mis-decoded.
const (
	recMagicKeyed  = 0xEC
	recMagicSerial = 0xED
)

const (
	kindEntry        byte = 0x81 // key, entry
	kindHint         byte = 0x82 // intended, key, entry
	kindHintAck      byte = 0x83 // intended, key
	kindRetired      byte = 0x84 // a key's node-issued dot counter, no longer journaled
	kindTransferDone byte = 0x85 // seq, idx, start, end
	kindGeoAck       byte = 0x86 // peer, seq
)

// recordKey returns the routing key of a record, or "" for records bound
// to the serial domain (transfer completions are epoch-, not key-scoped).
func (r walRecord) recordKey() (string, bool) {
	switch {
	case r.Entry != nil:
		return r.Entry.Key, true
	case r.Hint != nil:
		return r.Hint.Key, true
	case r.HintAck != nil:
		return r.HintAck.Key, true
	}
	return "", false
}

// appendRecord encodes r behind its replay-routing header.
func appendRecord(dst []byte, r walRecord) []byte {
	if key, keyed := r.recordKey(); keyed {
		dst = append(dst, recMagicKeyed)
		dst = binary.LittleEndian.AppendUint64(dst, ring.KeyHash(key))
	} else {
		dst = append(dst, recMagicSerial)
	}
	switch {
	case r.Entry != nil:
		dst = append(dst, kindEntry)
		dst = wire.AppendString(dst, r.Entry.Key)
		dst = appendEntry(dst, r.Entry.Entry)
	case r.Hint != nil:
		dst = append(dst, kindHint)
		dst = wire.AppendString(dst, r.Hint.Intended)
		dst = wire.AppendString(dst, r.Hint.Key)
		dst = appendEntry(dst, r.Hint.Entry)
	case r.HintAck != nil:
		dst = append(dst, kindHintAck)
		dst = wire.AppendString(dst, r.HintAck.Intended)
		dst = wire.AppendString(dst, r.HintAck.Key)
	case r.TransferDone != nil:
		dst = append(dst, kindTransferDone)
		dst = wire.AppendUvarint(dst, r.TransferDone.Seq)
		dst = wire.AppendVarint(dst, int64(r.TransferDone.Idx))
		dst = wire.AppendUvarint(dst, r.TransferDone.Start)
		dst = wire.AppendUvarint(dst, r.TransferDone.End)
	case r.GeoAck != nil:
		dst = append(dst, kindGeoAck)
		dst = wire.AppendString(dst, r.GeoAck.Peer)
		dst = wire.AppendUvarint(dst, r.GeoAck.Seq)
	default:
		panic("quorum: empty WAL record")
	}
	return dst
}

// decodeRecord is the inverse of appendRecord. Strings and contexts of
// the result are fresh; entry values alias rec.
func decodeRecord(rec []byte) (walRecord, error) {
	var r walRecord
	if len(rec) == 0 {
		return r, fmt.Errorf("quorum: empty WAL record: %w", wire.ErrMalformed)
	}
	hdr := 1
	switch rec[0] {
	case recMagicKeyed:
		hdr = 9
	case recMagicSerial:
	default:
		return r, wire.CheckFormat("quorum: WAL record", rec[0], recMagicKeyed)
	}
	if len(rec) <= hdr {
		return r, fmt.Errorf("quorum: truncated WAL record: %w", wire.ErrMalformed)
	}
	kind, rd := rec[hdr], wire.NewReader(rec[hdr+1:])
	switch kind {
	case kindEntry:
		r.Entry = &entryRec{Key: rd.String(), Entry: readEntry(rd)}
	case kindHint:
		r.Hint = &hintRec{Intended: rd.String(), Key: rd.String(), Entry: readEntry(rd)}
	case kindHintAck:
		r.HintAck = &hintAckRec{Intended: rd.String(), Key: rd.String()}
	case kindRetired:
		// A journal that holds one was written before writes were named
		// by their clients alone.
		return r, fmt.Errorf("quorum: WAL record kind %#x: %w", kind, wire.ErrFormatTooOld)
	case kindTransferDone:
		r.TransferDone = &transferDoneRec{Seq: rd.Uvarint(), Idx: int(rd.Varint()), Start: rd.Uvarint(), End: rd.Uvarint()}
	case kindGeoAck:
		r.GeoAck = &geoAckRec{Peer: rd.String(), Seq: rd.Uvarint()}
	default:
		return r, wire.CheckFormat("quorum: WAL record", kind, kindEntry)
	}
	if err := rd.Close(); err != nil {
		return walRecord{}, fmt.Errorf("quorum: WAL record kind %#x: %w", kind, err)
	}
	// The header must route the record where its key lives, or parallel
	// replay would apply it on a lane that does not own the key's order.
	key, keyed := r.recordKey()
	if keyed != (rec[0] == recMagicKeyed) || keyed && binary.LittleEndian.Uint64(rec[1:9]) != ring.KeyHash(key) {
		return walRecord{}, fmt.Errorf("quorum: WAL record kind %#x under the wrong routing header: %w", kind, wire.ErrMalformed)
	}
	return r, nil
}

// ReplayDomain routes a raw journaled record for parallel replay to the
// execution domain that journals it: 1+k for a key-addressed record of
// shard k, 0 (the serial lane) for the rest, and for anything
// unrecognisable, which ReplayRecord then refuses there.
func (n *Node) ReplayDomain(rec []byte) int {
	if len(rec) >= 9 && rec[0] == recMagicKeyed {
		return 1 + n.router.ShardOfHash(binary.LittleEndian.Uint64(rec[1:9]))
	}
	return 0
}

// persistRecord journals one mutation. domain names the execution domain
// the mutation ran on (Env.Domain: 0 = serial loop, 1+i = shard i) so the
// hosting server can account the pending fsync to the right ack barrier.
// The record is encoded into the domain's reused buffer, so it is the
// hook's only for the duration of the call.
func (n *Node) persistRecord(domain int, r walRecord) {
	if n.cfg.PersistAt == nil {
		return
	}
	rec := appendRecord(n.recBufs[domain][:0], r)
	if cap(rec) <= maxKeptRecord {
		n.recBufs[domain] = rec
	}
	n.cfg.PersistAt(domain, rec)
}

// maxKeptRecord bounds the record buffer a domain keeps between records;
// a larger record's buffer is left to the collector.
const maxKeptRecord = 64 << 10

// installEntry adds one version to key's sibling set and journals it if
// the set changed. This is the single install path of the live node:
// replica puts, read repair and every batch a stream ships. domain is the
// executing durability domain (see persistRecord).
func (n *Node) installEntry(domain int, key string, e clock.SiblingEntry[record]) {
	if n.installHook != nil {
		n.installHook(key, e)
	}
	if !n.applyEntry(key, e) {
		return // duplicate or obsolete: nothing to journal
	}
	// Journaled outside the lock: concurrent installs of the same key are
	// causally unordered, and replaying their records in either order
	// joins to the same sibling set (AddSibling is a semilattice merge).
	n.persistRecord(domain, walRecord{Entry: &entryRec{Key: key, Entry: e}})
}

// applyEntry is the one read-modify-write of a key's sibling set: decode
// the stored set once, add e, encode and store it once if that changed
// it, and refresh the key's anti-entropy digests from the set in hand.
// It reports whether the set changed. WAL replay and checkpoint restore
// call it directly, which is what keeps them from re-journaling.
//
// The digests are refreshed for a duplicate too. That is the only thing
// that ever puts a key into a peer's tree, and two cases reach here with
// the key already stored and the tree without it: a restart over a
// disk-resident engine (replay finds every set in the SSTables), and a
// peer that joined the key's preference list after the key was written
// (its first anti-entropy push is all duplicates). Skip it and those keys
// are never offered to the peer and their buckets mismatch forever.
//
// e.Value may alias a frame or journal buffer: encodeStored copies it
// into the stored value, so nothing here retains it.
func (n *Node) applyEntry(key string, e clock.SiblingEntry[record]) bool {
	sh := n.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	es, changed := clock.AddSibling(sh.entries(key), e.DVV, e.Value)
	if changed {
		sh.setEntries(key, es)
	}
	// Still under the shard lock, so that two racing installs of one key
	// leave the digest of whichever set was stored last.
	n.noteKeyChanged(key, es)
	return changed
}

// storeHint queues a version for intended, deduplicating by dot so
// retried RPCs and WAL replay keep the queue at-most-once. Reports
// whether the hint was new.
func (n *Node) storeHint(intended, key string, e clock.SiblingEntry[record]) bool {
	n.hintsMu.Lock()
	defer n.hintsMu.Unlock()
	if n.hints[intended] == nil {
		n.hints[intended] = make(map[string][]clock.SiblingEntry[record])
	}
	for _, have := range n.hints[intended][key] {
		if have.DVV.Dot == e.DVV.Dot {
			return false
		}
	}
	n.hints[intended][key] = append(n.hints[intended][key], e)
	return true
}

// dropHints discards, of the hints queued for intended under key, those
// whose dots shipped names (they were acknowledged installed), or all of
// them when shipped is nil. It reports how many it dropped and how many
// the key has left.
func (n *Node) dropHints(intended, key string, shipped []clock.SiblingEntry[record]) (dropped, left int) {
	n.hintsMu.Lock()
	defer n.hintsMu.Unlock()
	keys := n.hints[intended]
	queued := keys[key]
	keep := slices.DeleteFunc(queued, func(have clock.SiblingEntry[record]) bool {
		return shipped == nil || slices.ContainsFunc(shipped, func(e clock.SiblingEntry[record]) bool { return e.DVV.Dot == have.DVV.Dot })
	})
	if len(keep) > 0 {
		keys[key] = keep
	} else {
		delete(keys, key)
		if len(keys) == 0 {
			delete(n.hints, intended)
		}
	}
	return len(queued) - len(keep), len(keep)
}

// ReplayRecord re-applies one journaled mutation during crash recovery.
// Must run before the node starts exchanging messages. Nothing it does
// re-journals. Records for different keys may be replayed concurrently
// (the parallel recovery path partitions the journal with ReplayDomain);
// per-key structures are lock-guarded, and TransferDone records must stay
// on the single serial replay lane. rec may be reused once it returns:
// the one thing replay retains, a queued hint, gets its own copy of the
// value.
func (n *Node) ReplayRecord(rec []byte) error {
	r, err := decodeRecord(rec)
	if err != nil {
		return err
	}
	switch {
	case r.Entry != nil:
		n.applyEntry(r.Entry.Key, r.Entry.Entry)
	case r.Hint != nil:
		r.Hint.Entry.Value.Value = bytes.Clone(r.Hint.Entry.Value.Value)
		n.storeHint(r.Hint.Intended, r.Hint.Key, r.Hint.Entry)
	case r.HintAck != nil:
		n.dropHints(r.HintAck.Intended, r.HintAck.Key, nil)
	case r.TransferDone != nil:
		n.markTransferDone(r.TransferDone.Seq, r.TransferDone.Idx)
	case r.GeoAck != nil:
		n.geoRestoreAck(r.GeoAck.Peer, r.GeoAck.Seq)
	}
	return nil
}

// Checkpoint layout: [checkpointFormat] then four counted lists in the
// wire codec —
//
//	keys:      key, stored value (length-prefixed, its own format byte first)
//	hints:     intended, key, entry
//	transfers: epoch seq, range index
//	geo acks:  peer, acked seq
//
// A checkpoint is captured on the actor loop and written off it. The
// capture takes each shard's pairs, which alias the stored values, and
// encodes only the three short lists; the write streams the stored
// values in raw, with no decode and no re-encode. The other lists are
// written in key order, so one state is one image. The retired format
// 0xE2 carried a fifth list, the node-issued dot counters, and is
// refused with wire.ErrFormatTooOld.
const (
	checkpointFormat        = 0xE3
	checkpointFormatRetired = 0xE2
)

// Checkpoint captures the node's durable state and returns the image a
// checkpoint writes. Shards are captured concurrently, each under its own
// read lock, and the capture copies no stored value: an install stores a
// fresh value rather than writing through the old one, so the image may
// be written after the locks are released, off the actor loop, while
// installs go on. The caller fixes the WAL sequence the checkpoint
// covers before invoking this, so any mutation the capture races is also
// in the replayed suffix and re-applies idempotently. The transfer list
// is the actor loop's own, so this must run there.
func (n *Node) Checkpoint() io.WriterTo {
	im := &checkpointImage{shards: make([][]storage.Pair, len(n.shards))}
	var wg sync.WaitGroup
	for i, sh := range n.shards {
		wg.Add(1)
		go func(im *[]storage.Pair, sh *nodeShard) {
			defer wg.Done()
			sh.mu.RLock()
			defer sh.mu.RUnlock()
			*im = sh.store.Scan("", "", 0)
		}(&im.shards[i], sh)
	}
	wg.Wait()

	n.hintsMu.Lock()
	tail := wire.AppendUvarint(nil, uint64(n.pendingHintsLocked()))
	for _, intended := range sortedKeys(n.hints) {
		keys := n.hints[intended]
		for _, key := range sortedKeys(keys) {
			for _, e := range keys[key] {
				tail = wire.AppendString(tail, intended)
				tail = wire.AppendString(tail, key)
				tail = appendEntry(tail, e)
			}
		}
	}
	n.hintsMu.Unlock()

	done := 0
	for _, idxs := range n.xferDone {
		done += len(idxs)
	}
	tail = wire.AppendUvarint(tail, uint64(done))
	for _, seq := range sortedKeys(n.xferDone) {
		for _, idx := range sortedKeys(n.xferDone[seq]) {
			tail = wire.AppendUvarint(tail, seq)
			tail = wire.AppendVarint(tail, int64(idx))
		}
	}

	n.geoMu.Lock()
	tail = wire.AppendUvarint(tail, uint64(len(n.geoPeers)))
	for _, p := range sortedKeys(n.geoPeers) {
		tail = wire.AppendString(tail, p)
		tail = wire.AppendUvarint(tail, n.geoPeers[p].acked)
	}
	n.geoMu.Unlock()
	im.tail = tail
	return im
}

// checkpointImage is one capture of a node's durable state: each shard's
// pairs in key order, and the hint, transfer and geo lists encoded.
type checkpointImage struct {
	shards [][]storage.Pair
	tail   []byte
}

// WriteTo streams the image in the checkpoint layout. It only reads the
// image, so it may run more than once.
func (im *checkpointImage) WriteTo(w io.Writer) (total int64, err error) {
	write := func(b []byte) {
		if err == nil {
			var n int
			n, err = w.Write(b)
			total += int64(n)
		}
	}
	keys := 0
	for _, pairs := range im.shards {
		keys += len(pairs)
	}
	head := append(make([]byte, 0, 64), checkpointFormat)
	head = wire.AppendUvarint(head, uint64(keys))
	for _, pairs := range im.shards {
		for _, p := range pairs {
			head = wire.AppendString(head, p.Key)
			head = wire.AppendUvarint(head, uint64(len(p.Value)))
			write(head)
			write(p.Value)
			if err != nil {
				return total, err
			}
			head = head[:0]
		}
	}
	write(head)
	write(im.tail)
	return total, err
}

// RestoreState loads a checkpoint written from Checkpoint's image. Call
// before ReplayRecord replays the log suffix. Nothing restored aliases
// state.
func (n *Node) RestoreState(state []byte) error {
	if len(state) > 0 && state[0] == checkpointFormatRetired {
		return fmt.Errorf("quorum: checkpoint: %w", wire.ErrFormatTooOld)
	}
	r, err := wire.NewVersionedReader("quorum: checkpoint", state, checkpointFormat)
	if err != nil {
		return err
	}
	for i := r.Count(); i > 0; i-- {
		key, stored := r.String(), r.Raw()
		if r.Err() != nil {
			break
		}
		es, err := decodeStored(stored)
		if err != nil {
			return fmt.Errorf("quorum: checkpoint key %q: %w", key, err)
		}
		for _, e := range es {
			n.applyEntry(key, e)
		}
	}
	for i := r.Count(); i > 0; i-- {
		intended, key, e := r.String(), r.String(), readEntry(r)
		if r.Err() == nil {
			e.Value.Value = bytes.Clone(e.Value.Value)
			n.storeHint(intended, key, e)
		}
	}
	for i := r.Count(); i > 0; i-- {
		if seq, idx := r.Uvarint(), int(r.Varint()); r.Err() == nil {
			n.markTransferDone(seq, idx)
		}
	}
	for i := r.Count(); i > 0; i-- {
		if peer, seq := r.String(), r.Uvarint(); r.Err() == nil {
			n.geoRestoreAck(peer, seq)
		}
	}
	if err := r.Close(); err != nil {
		return fmt.Errorf("quorum: checkpoint: %w", err)
	}
	return nil
}
