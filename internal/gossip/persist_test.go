package gossip

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
func record(w Write) []byte {
	var rec []byte
	fixtureNode(func(b []byte) { rec = b }).persist(w)
	return rec
}

// restored returns a node rebuilt from a journal of ws.
func restored(t testing.TB, ws []Write) *Node {
	t.Helper()
	n := fixtureNode(nil)
	for _, w := range ws {
		if err := n.ReplayRecord(record(w)); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

func TestSnapshotRestoreSnapshotIsByteIdentical(t *testing.T) {
	checkSnapshotFixpoint(t, fixtureNode(nil))
	checkSnapshotFixpoint(t, restored(t, fixtureWrites))
}

func TestReplayingARecordTwiceIsANoOp(t *testing.T) {
	n := restored(t, fixtureWrites)
	once := n.StateSnapshot()
	root := n.RootHash()
	for _, w := range fixtureWrites {
		if err := n.ReplayRecord(record(w)); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.RestoreState(once); err != nil {
		t.Fatal(err)
	}
	twice := n.StateSnapshot()
	if !bytes.Equal(once, twice) || n.RootHash() != root {
		t.Fatalf("second replay changed the state:\n once  %x\n twice %x", once, twice)
	}
}

// A record or checkpoint cut short anywhere, or followed by anything, is
// an error — and not the too-old one, nor a partial install.
func TestPersistRejectsTruncationAndTrailingBytes(t *testing.T) {
	state := restored(t, fixtureWrites).StateSnapshot()
	for what, c := range map[string]struct {
		b      []byte
		decode func(n *Node, b []byte) error
	}{
		"WAL record": {record(fixtureWrites[0]), (*Node).ReplayRecord},
		"checkpoint": {state, (*Node).RestoreState},
	} {
		n := fixtureNode(nil)
		inputs := [][]byte{append(bytes.Clone(c.b), 0)}
		for cut := 0; cut < len(c.b); cut++ {
			inputs = append(inputs, c.b[:cut])
		}
		for _, in := range inputs {
			if err := c.decode(n, in); err == nil || errors.Is(err, wire.ErrFormatTooOld) {
				t.Fatalf("%s of %d bytes fed %d: got %v, want a malformed-input error", what, len(c.b), len(in), err)
			}
		}
		if len(n.data) != 0 {
			t.Fatalf("a malformed %s installed %d writes", what, len(n.data))
		}
	}
}

// What the gob commits wrote starts with the length byte of a gob stream:
// refused as too old, for synthetic bytes and for the parent commit's own
// journal and checkpoint. Any other unknown byte is not.
func TestPersistFormatByte(t *testing.T) {
	n := fixtureNode(nil)
	rec := record(fixtureWrites[0])
	state := restored(t, fixtureWrites).StateSnapshot()
	for _, lead := range []byte{0x01, 0x2C, 0x7F, 0xF8, 0xFF} {
		rec[0], state[0] = lead, lead
		if err := n.ReplayRecord(rec); !errors.Is(err, wire.ErrFormatTooOld) {
			t.Errorf("WAL record led by %#x: got %v, want wire.ErrFormatTooOld", lead, err)
		}
		if err := n.RestoreState(state); !errors.Is(err, wire.ErrFormatTooOld) {
			t.Errorf("checkpoint led by %#x: got %v, want wire.ErrFormatTooOld", lead, err)
		}
	}
	rec[0], state[0] = checkpointFormat, recordFormat // each other's byte
	if err := n.ReplayRecord(rec); err == nil || errors.Is(err, wire.ErrFormatTooOld) {
		t.Errorf("WAL record led by %#x: got %v, want an unknown-format error", rec[0], err)
	}
	if err := n.RestoreState(state); err == nil || errors.Is(err, wire.ErrFormatTooOld) {
		t.Errorf("checkpoint led by %#x: got %v, want an unknown-format error", state[0], err)
	}

	for _, rec := range fixtureRecords(t, "v0") {
		if err := n.ReplayRecord(rec); !errors.Is(err, wire.ErrFormatTooOld) {
			t.Fatalf("v0 WAL record: got %v, want wire.ErrFormatTooOld", err)
		}
	}
	if err := n.RestoreState(fixtureCheckpoint(t, "v0")); !errors.Is(err, wire.ErrFormatTooOld) {
		t.Fatalf("v0 checkpoint: got %v, want wire.ErrFormatTooOld", err)
	}
	if len(n.data) != 0 {
		t.Fatalf("refused input installed %d writes", len(n.data))
	}
}

// wal.Replay hands out slices of whole segment buffers, and a decoded
// Value aliases the bytes it was decoded from: the node must copy what it
// keeps, or every stored value pins (and changes with) its segment.
func TestReplayedValuesDoNotAliasTheRecordBuffer(t *testing.T) {
	w := fixtureWrites[1]
	for what, replay := range map[string]func(n *Node, b []byte) error{
		"WAL record": (*Node).ReplayRecord,
		"checkpoint": (*Node).RestoreState,
	} {
		buf := record(w)
		if what == "checkpoint" {
			buf = restored(t, fixtureWrites).StateSnapshot()
		}
		n := fixtureNode(nil)
		if err := replay(n, buf); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] ^= 0xFF
		}
		if got, ok := n.Get(w.Key); !ok || !bytes.Equal(got, w.Value) {
			t.Fatalf("%s: after its buffer was overwritten, Get(%s) = %q, %v; want %q", what, w.Key, got, ok, w.Value)
		}
	}
}

// checkSnapshotFixpoint fails unless n's snapshot restores to the same
// write map and the same snapshot bytes.
func checkSnapshotFixpoint(t testing.TB, n *Node) {
	t.Helper()
	state := n.StateSnapshot()
	m := fixtureNode(nil)
	if err := m.RestoreState(state); err != nil {
		t.Fatalf("snapshot %x does not restore: %v", state, err)
	}
	if again := m.StateSnapshot(); !bytes.Equal(again, state) || !reflect.DeepEqual(m.data, n.data) || m.RootHash() != n.RootHash() {
		t.Fatalf("snapshot of the restored node differs:\n first  %x\n second %x", state, again)
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
		for _, decode := range []func(*Node, []byte) error{(*Node).ReplayRecord, (*Node).RestoreState} {
			if n := fixtureNode(nil); decode(n, data) == nil {
				checkSnapshotFixpoint(t, n)
			}
		}
		ws := genWrites(wiretest.NewGen(seed))
		for _, w := range ws {
			if got := restored(t, []Write{w}).data[w.Key]; !reflect.DeepEqual(got, w) {
				t.Fatalf("journal round trip:\n got  %#v\n want %#v", got, w)
			}
		}
		checkSnapshotFixpoint(t, restored(t, ws))
	})
}
