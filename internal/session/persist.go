package session

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"repro/internal/wire"
)

// Durability hooks. A session server's durable state is exactly its
// per-origin write logs: the version vector, Lamport clock, LWW-resolved
// data map, and at-most-once client table are all replayed out of them.
// WAL records are single writes; replay goes through applyRemote, whose
// dense-sequence check makes re-application a no-op, so a record that
// was both journaled and later re-learned via anti-entropy is harmless.
//
// On-disk layouts, in the encoders of wire.go behind a version byte that
// follows wire.CheckFormat's rule:
//
//	WAL record  [recordFormat][write]
//	checkpoint  [checkpointFormat][write list], every origin's full log
//	            one after the other (a write names its origin), origins
//	            sorted so snapshots of equal states are equal bytes
const (
	recordFormat     = 0xB1
	checkpointFormat = 0xB2
)

// persistWrite journals one appended write through cfg.Persist, if set.
// Runs on the server's actor loop before the client ack is sent.
func (s *Server) persistWrite(w write) {
	if s.cfg.Persist != nil {
		rec := append(make([]byte, 0, 64+len(w.Key)+len(w.Val)), recordFormat) // one allocation, not a doubling chain
		s.cfg.Persist(appendSessWrite(rec, w))
	}
}

// applyDecoded applies a write decoded from a journal record or a
// checkpoint. Its Val aliases the buffer it was decoded from — a whole
// WAL segment during replay — so it is copied first: the logs must not
// pin, or change with, the caller's buffer.
func (s *Server) applyDecoded(w write) {
	w.Val = bytes.Clone(w.Val)
	s.applyRemote(w)
}

// ReplayRecord re-applies one journaled write during crash recovery.
// Must be called before the server starts exchanging messages.
func (s *Server) ReplayRecord(rec []byte) error {
	r, err := wire.NewVersionedReader("session: WAL record", rec, recordFormat)
	if err != nil {
		return err
	}
	w := readSessWrite(r)
	if err := r.Close(); err != nil {
		return fmt.Errorf("session: WAL record: %w", err)
	}
	s.applyDecoded(w)
	return nil
}

// StateSnapshot serializes the server's durable state for a checkpoint.
func (s *Server) StateSnapshot() []byte {
	origins := make([]string, 0, len(s.logs))
	for origin := range s.logs {
		origins = append(origins, origin)
	}
	sort.Strings(origins)
	var ws []write
	for _, origin := range origins {
		ws = append(ws, s.logs[origin]...)
	}
	return appendSessWrites([]byte{checkpointFormat}, ws)
}

// Checkpoint returns StateSnapshot's bytes as the image a checkpoint
// writes.
func (s *Server) Checkpoint() io.WriterTo { return bytes.NewReader(s.StateSnapshot()) }

// RestoreState loads a checkpoint written by StateSnapshot, rebuilding
// the version vector, Lamport clock, resolved values, and at-most-once
// client table from the logs. Call before ReplayRecord.
func (s *Server) RestoreState(state []byte) error {
	r, err := wire.NewVersionedReader("session: checkpoint", state, checkpointFormat)
	if err != nil {
		return err
	}
	ws := readSessWrites(r)
	if err := r.Close(); err != nil {
		return fmt.Errorf("session: checkpoint: %w", err)
	}
	for _, w := range ws {
		s.applyDecoded(w)
	}
	return nil
}
