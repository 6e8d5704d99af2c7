package session

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/wire"
	"repro/internal/wiretest"
)

// The on-disk codecs (persist.go): journal records and checkpoints.

// record returns the journal record the persist hook writes for w.
func record(w write) []byte {
	var rec []byte
	fixtureServer(func(b []byte) { rec = b }).persistWrite(w)
	return rec
}

// restored returns a server rebuilt from a journal of ws.
func restored(t testing.TB, ws []write) *Server {
	t.Helper()
	s := fixtureServer(nil)
	for _, w := range ws {
		if err := s.ReplayRecord(record(w)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestSnapshotRestoreSnapshotIsByteIdentical(t *testing.T) {
	checkSnapshotFixpoint(t, fixtureServer(nil))
	checkSnapshotFixpoint(t, restored(t, fixtureWrites))
}

func TestReplayingARecordTwiceIsANoOp(t *testing.T) {
	s := restored(t, fixtureWrites)
	once := s.StateSnapshot()
	for _, w := range fixtureWrites {
		if err := s.ReplayRecord(record(w)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RestoreState(once); err != nil {
		t.Fatal(err)
	}
	checkFixtureState(t, s)
	if twice := s.StateSnapshot(); !bytes.Equal(once, twice) {
		t.Fatalf("second replay changed the state:\n once  %x\n twice %x", once, twice)
	}
}

// A record or checkpoint cut short anywhere, or followed by anything, is
// an error — and not the too-old one, nor a partial apply.
func TestPersistRejectsTruncationAndTrailingBytes(t *testing.T) {
	state := restored(t, fixtureWrites).StateSnapshot()
	for what, c := range map[string]struct {
		b      []byte
		decode func(s *Server, b []byte) error
	}{
		"WAL record": {record(fixtureWrites[0]), (*Server).ReplayRecord},
		"checkpoint": {state, (*Server).RestoreState},
	} {
		s := fixtureServer(nil)
		inputs := [][]byte{append(bytes.Clone(c.b), 0)}
		for cut := 0; cut < len(c.b); cut++ {
			inputs = append(inputs, c.b[:cut])
		}
		for _, in := range inputs {
			if err := c.decode(s, in); err == nil || errors.Is(err, wire.ErrFormatTooOld) {
				t.Fatalf("%s of %d bytes fed %d: got %v, want a malformed-input error", what, len(c.b), len(in), err)
			}
		}
		if len(s.logs) != 0 {
			t.Fatalf("a malformed %s applied writes of %d origins", what, len(s.logs))
		}
	}
}

// What the gob commits wrote starts with the length byte of a gob stream:
// refused as too old, for synthetic bytes and for the parent commit's own
// journal and checkpoint. Any other unknown byte is not.
func TestPersistFormatByte(t *testing.T) {
	s := fixtureServer(nil)
	rec := record(fixtureWrites[0])
	state := restored(t, fixtureWrites).StateSnapshot()
	for _, lead := range []byte{0x01, 0x2C, 0x7F, 0xF8, 0xFF} {
		rec[0], state[0] = lead, lead
		if err := s.ReplayRecord(rec); !errors.Is(err, wire.ErrFormatTooOld) {
			t.Errorf("WAL record led by %#x: got %v, want wire.ErrFormatTooOld", lead, err)
		}
		if err := s.RestoreState(state); !errors.Is(err, wire.ErrFormatTooOld) {
			t.Errorf("checkpoint led by %#x: got %v, want wire.ErrFormatTooOld", lead, err)
		}
	}
	rec[0], state[0] = checkpointFormat, recordFormat // each other's byte
	if err := s.ReplayRecord(rec); err == nil || errors.Is(err, wire.ErrFormatTooOld) {
		t.Errorf("WAL record led by %#x: got %v, want an unknown-format error", rec[0], err)
	}
	if err := s.RestoreState(state); err == nil || errors.Is(err, wire.ErrFormatTooOld) {
		t.Errorf("checkpoint led by %#x: got %v, want an unknown-format error", state[0], err)
	}

	for _, rec := range fixtureRecords(t, "v0") {
		if err := s.ReplayRecord(rec); !errors.Is(err, wire.ErrFormatTooOld) {
			t.Fatalf("v0 WAL record: got %v, want wire.ErrFormatTooOld", err)
		}
	}
	if err := s.RestoreState(fixtureCheckpoint(t, "v0")); !errors.Is(err, wire.ErrFormatTooOld) {
		t.Fatalf("v0 checkpoint: got %v, want wire.ErrFormatTooOld", err)
	}
	if len(s.logs) != 0 {
		t.Fatalf("refused input applied writes of %d origins", len(s.logs))
	}
}

// wal.Replay hands out slices of whole segment buffers, and a decoded Val
// aliases the bytes it was decoded from: the server must copy what it
// keeps, or every logged value pins (and changes with) its segment.
func TestReplayedValuesDoNotAliasTheRecordBuffer(t *testing.T) {
	w := fixtureWrites[0]
	for what, replay := range map[string]func(s *Server, b []byte) error{
		"WAL record": (*Server).ReplayRecord,
		"checkpoint": (*Server).RestoreState,
	} {
		buf := record(w)
		if what == "checkpoint" {
			buf = appendSessWrites([]byte{checkpointFormat}, []write{w})
		}
		s := fixtureServer(nil)
		if err := replay(s, buf); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] ^= 0xFF
		}
		if got, ok := s.Value(w.Key); !ok || !bytes.Equal(got, w.Val) {
			t.Fatalf("%s: after its buffer was overwritten, Value(%s) = %q, %v; want %q", what, w.Key, got, ok, w.Val)
		}
		if logged := s.logs[w.ID.Origin][0].Val; !bytes.Equal(logged, w.Val) {
			t.Fatalf("%s: after its buffer was overwritten, the logged value is %q; want %q", what, logged, w.Val)
		}
	}
}

// checkSnapshotFixpoint fails unless s's snapshot restores to the same
// logs and the same snapshot bytes.
func checkSnapshotFixpoint(t testing.TB, s *Server) {
	t.Helper()
	state := s.StateSnapshot()
	r := fixtureServer(nil)
	if err := r.RestoreState(state); err != nil {
		t.Fatalf("snapshot %x does not restore: %v", state, err)
	}
	if again := r.StateSnapshot(); !bytes.Equal(again, state) || !reflect.DeepEqual(r.logs, s.logs) {
		t.Fatalf("snapshot of the restored server differs:\n first  %x\n second %x", state, again)
	}
}

// FuzzPersistDecode: arbitrary bytes never panic the record or checkpoint
// decoder, and what they decode to re-encodes to itself; generated writes
// come back from the journal exactly, nil and empty values apart.
func FuzzPersistDecode(f *testing.F) {
	f.Add(restored(f, fixtureWrites).StateSnapshot(), int64(0))
	f.Add(record(fixtureWrites[4]), int64(1))
	f.Add([]byte{checkpointFormat, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, int64(2)) // a count far past the bytes
	f.Add([]byte{0x2C, 0xFF, 0x81}, int64(3))                               // gob
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		for _, decode := range []func(*Server, []byte) error{(*Server).ReplayRecord, (*Server).RestoreState} {
			if s := fixtureServer(nil); decode(s, data) == nil {
				checkSnapshotFixpoint(t, s)
			}
		}
		// One origin's log, dense from 1, or replay drops the writes.
		ws := genWrites(wiretest.NewGen(seed))
		for i := range ws {
			ws[i].ID = WriteID{Origin: "gen", Seq: uint64(i) + 1}
		}
		s := restored(t, ws)
		if got := s.logs["gen"]; len(ws) > 0 && !reflect.DeepEqual(got, ws) {
			t.Fatalf("journal round trip:\n got  %#v\n want %#v", got, ws)
		}
		checkSnapshotFixpoint(t, s)
	})
}
