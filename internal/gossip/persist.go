package gossip

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"repro/internal/wire"
)

// Durability hooks. A gossip node's entire replicated state is its LWW
// write map: journaling every installed Write (and snapshotting the map)
// is enough to rebuild the node — the Merkle tree and HLC are derived.
// Replay is naturally idempotent: re-installing an already-held write
// loses the LWW comparison and is a no-op.
//
// On-disk layouts, in the encoders of wire.go behind a version byte that
// follows wire.CheckFormat's rule:
//
//	WAL record  [recordFormat][write]
//	checkpoint  [checkpointFormat][write list], every held write
//	            (tombstones included), sorted by key so snapshots of
//	            equal states are equal bytes
const (
	recordFormat     = 0xA1
	checkpointFormat = 0xA2
)

// persist journals one installed write through cfg.Persist, if set. The
// callback runs on the node's actor loop before any acknowledgement is
// sent, so a SyncEach WAL makes acked writes durable.
func (n *Node) persist(w Write) {
	if n.cfg.Persist != nil {
		rec := append(make([]byte, 0, 16+w.wireSize()), recordFormat) // one allocation, not a doubling chain
		n.cfg.Persist(appendWrite(rec, w))
	}
}

// installDecoded installs a write decoded from a journal record or a
// checkpoint. Its Value aliases the buffer it was decoded from — a whole
// WAL segment during replay — so it is copied first: the write map must
// not pin, or change with, the caller's buffer.
func (n *Node) installDecoded(w Write) {
	w.Value = bytes.Clone(w.Value)
	n.install(w)
}

// ReplayRecord re-installs one journaled write during crash recovery.
// Must be called before the node starts exchanging messages.
func (n *Node) ReplayRecord(rec []byte) error {
	r, err := wire.NewVersionedReader("gossip: WAL record", rec, recordFormat)
	if err != nil {
		return err
	}
	w := readWrite(r)
	if err := r.Close(); err != nil {
		return fmt.Errorf("gossip: WAL record: %w", err)
	}
	n.installDecoded(w)
	return nil
}

// StateSnapshot serializes the node's replicated state for a checkpoint.
func (n *Node) StateSnapshot() []byte {
	keys := make([]string, 0, len(n.data))
	for k := range n.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ws := make([]Write, 0, len(keys))
	for _, k := range keys {
		ws = append(ws, n.data[k])
	}
	return appendWrites([]byte{checkpointFormat}, ws)
}

// Checkpoint returns StateSnapshot's bytes as the image a checkpoint
// writes.
func (n *Node) Checkpoint() io.WriterTo { return bytes.NewReader(n.StateSnapshot()) }

// RestoreState loads a checkpoint written by StateSnapshot. Must be
// called before ReplayRecord replays the log suffix.
func (n *Node) RestoreState(state []byte) error {
	r, err := wire.NewVersionedReader("gossip: checkpoint", state, checkpointFormat)
	if err != nil {
		return err
	}
	ws := readWrites(r)
	if err := r.Close(); err != nil {
		return fmt.Errorf("gossip: checkpoint: %w", err)
	}
	for _, w := range ws {
		n.installDecoded(w)
	}
	return nil
}
