package quorum

import (
	"slices"
	"time"

	"repro/internal/clock"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Shipping versions to a peer (DESIGN.md has the section of that name).
// Hinted handoff, anti-entropy, range transfer and geo replication each
// supply a source of keyed entries and say what an acknowledgement means;
// the rest is here, once. A stream keeps one shipBatch in flight, filled to
// Config.TransferBatch encoded bytes but never short of one key, resends it
// as it is every Config.Timeout until the peer's shipAck echoes its
// (stream, seq), and only then builds the next. The receiver installs
// through installEntry, which drops a version it already has: that is what
// makes a resent or duplicated batch harmless.

// streamKind says what a stream carries: the receiver reads its hook off
// it, the sender the one stream it keeps per peer and kind.
type streamKind uint8

const (
	streamHints streamKind = 1 + iota
	streamAE
	streamTransfer
	streamGeo
)

// streamID names a stream. N is issued by the node that opens it (the
// gainer for a transfer, the sender otherwise) from a counter that starts
// at its boot time, so an ack from before a restart cannot match a batch
// sent after it.
type streamID struct {
	Kind streamKind
	N    uint64
}

// aeEntry is one key's sibling entries as a frame carries them.
type aeEntry struct {
	Key     string
	Entries []clock.SiblingEntry[record]
}

type (
	// shipBatch is the one frame that carries keyed entries to a peer.
	shipBatch struct {
		Stream  streamID
		Seq     uint64 // counts the stream's batches from 1
		Entries []aeEntry
		Cursor  string // transfer: where the range resumes after Entries
		Done    bool   // nothing follows
		Stamp   geoStamp
	}
	// shipAck says the batch (Stream, Seq) is installed.
	shipAck struct {
		Stream streamID
		Seq    uint64
	}
)

// Size implements the sim bandwidth hook, and is what the transfer
// counters and throttle charge: the encoded size, by construction.
func (m shipBatch) Size() int { return len(m.AppendBinary(nil)) }

// source is what a stream kind supplies.
type source struct {
	// next returns the next batch: Entries filled through fill.add, Done
	// when nothing follows, the kind's own Cursor or Stamp. It runs once
	// per batch, after the one before was acknowledged, and costs in
	// proportion to what it returns.
	next func(budget int) shipBatch
	// acked, if set, runs when the peer has installed entries, the last
	// batch.
	acked func(env transport.Env, entries []aeEntry)
}

// fill collects one batch's entries against the byte budget.
type fill struct {
	entries []aeEntry
	size    int
}

// add appends key's entries and reports whether the batch is full: the one
// place a batch's size is decided, by the bytes the entries encode to.
func (f *fill) add(budget int, key string, es []clock.SiblingEntry[record]) bool {
	f.entries = append(f.entries, aeEntry{Key: key, Entries: es})
	f.size += wire.SizeString(key) + entriesSize(es)
	return f.size >= budget
}

// shipKeys returns a source's next that ships what entries holds for each
// of keys, in that order, skipping a key it holds nothing for.
func shipKeys(keys []string, entries func(key string) []clock.SiblingEntry[record]) func(int) shipBatch {
	return func(budget int) shipBatch {
		var f fill
		for full := false; len(keys) > 0 && !full; keys = keys[1:] {
			if es := entries(keys[0]); len(es) > 0 {
				full = f.add(budget, keys[0], es)
			}
		}
		return shipBatch{Entries: f.entries, Done: len(keys) == 0}
	}
}

// outStream is the sender's half of a stream, and the tag of its timer.
type outStream struct {
	peer string
	id   streamID
	sub  int // transfer: the range index served; 0 otherwise
	src  source
	// batch is the one in flight, kept to be resent as it is and to tell
	// the source on ack exactly what the peer installed.
	batch shipBatch
	timer transport.TimerID
}

func (n *Node) mintStream() uint64 {
	n.lastStream++
	return n.lastStream
}

// streamTo returns the open stream of kind (and sub) to peer, or nil.
func (n *Node) streamTo(peer string, kind streamKind, sub int) *outStream {
	for _, st := range n.out {
		if st.peer == peer && st.id.Kind == kind && st.sub == sub {
			return st
		}
	}
	return nil
}

// openStream starts shipping src to peer, in place of the open stream of
// the same kind and sub, whose batch in flight is thereby void: its ack
// finds no stream.
func (n *Node) openStream(env transport.Env, peer string, id streamID, sub int, src source) {
	if old := n.streamTo(peer, id.Kind, sub); old != nil {
		n.closeStream(env, old)
	}
	st := &outStream{peer: peer, id: id, sub: sub, src: src}
	n.out = append(n.out, st)
	n.sendNext(env, st)
}

func (n *Node) closeStream(env transport.Env, st *outStream) {
	env.Cancel(st.timer)
	n.out = slices.DeleteFunc(n.out, func(s *outStream) bool { return s == st })
}

// sendNext builds the stream's next batch and sends it, a transfer batch
// once the token bucket allows: the stream's timer then does the first
// send too.
func (n *Node) sendNext(env transport.Env, st *outStream) {
	seq := st.batch.Seq + 1
	st.batch = st.src.next(n.cfg.TransferBatch)
	st.batch.Stream, st.batch.Seq = st.id, seq
	if st.id.Kind == streamTransfer {
		if wait := n.throttle(env.Now(), st.batch.Size()); wait > 0 {
			st.timer = env.SetTimer(wait, st)
			return
		}
	}
	n.transmit(env, st)
}

// transmit sends the batch in flight and arms its resend. It is also the
// stream's timer, for a stream still open: the batch is unacknowledged, or
// was waiting on the throttle.
func (n *Node) transmit(env transport.Env, st *outStream) {
	env.Send(st.peer, st.batch)
	st.timer = env.SetTimer(n.cfg.Timeout, st)
}

// onShipAck advances the stream whose batch in flight m names. Any other
// ack (a duplicate, one for a superseded batch or a replaced stream, one
// from before a restart) names none and is dropped.
func (n *Node) onShipAck(env transport.Env, from string, m shipAck) {
	i := slices.IndexFunc(n.out, func(s *outStream) bool {
		return s.peer == from && s.id == m.Stream && s.batch.Seq == m.Seq
	})
	if i < 0 {
		return
	}
	st := n.out[i]
	env.Cancel(st.timer)
	if st.src.acked != nil {
		st.src.acked(env, st.batch.Entries)
	}
	if st.batch.Done {
		n.closeStream(env, st)
		return
	}
	n.sendNext(env, st)
}

// onShipBatch is the one receiver: install, run the kind's hook,
// acknowledge. It acknowledges whatever it is sent (a repeat, a batch of a
// stream since replaced, one after Done): installing is always safe and an
// unanswered sender would resend for ever. Only the hooks ask whether the
// stream still matters.
func (n *Node) onShipBatch(env transport.Env, from string, m shipBatch) {
	dom := env.Domain()
	for _, e := range m.Entries {
		if m.Stream.Kind == streamAE && !slices.Contains(n.PreferenceList(e.Key), n.id) {
			continue // anti-entropy is between replicas: not one of this key, ignore it
		}
		for _, s := range e.Entries {
			n.installEntry(dom, e.Key, s)
		}
	}
	switch m.Stream.Kind {
	case streamTransfer:
		n.transferReceived(env, dom, m)
	case streamGeo:
		n.noteZoneHigh(m.Stamp)
	}
	env.Send(from, shipAck{Stream: m.Stream, Seq: m.Seq})
}

// throttle charges size bytes to the transfer token bucket, which holds at
// most a second of burst and starts full, and returns how long the send
// must wait for the deficit to refill.
func (n *Node) throttle(now time.Duration, size int) time.Duration {
	rate := float64(n.cfg.TransferRate)
	n.tbTokens = min(rate, n.tbTokens+rate*(now-n.tbLast).Seconds()) - float64(size)
	n.tbLast = now
	n.Transfer.BytesOut.Add(uint64(size))
	if n.tbTokens >= 0 {
		return 0
	}
	n.Transfer.ThrottleWaits.Add(1)
	return time.Duration(-n.tbTokens / rate * float64(time.Second))
}
