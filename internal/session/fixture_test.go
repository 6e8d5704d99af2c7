package session

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/clock"
	"repro/internal/wal"
	"repro/internal/wiretest"
)

// Golden on-disk fixtures. testdata/<version>/ holds two data
// directories laid out the way server.New expects a DataDir:
//
//	wal/   WAL segments only: one record per appended write
//	ckpt/  one checkpoint of the same logs, and no journal
//
// v0 was written by this generator at the last commit whose formats were
// gob (d8f6af9); the current code must refuse it with
// wire.ErrFormatTooOld. v1 is written by the current code and must replay
// to exactly fixtureWant. The next format change adds v2 the same way and
// decides for v1 between replaying and refusing; committed files are
// never regenerated:
//
//	go test ./internal/session -run TestFixtureV1 -write-fixtures testdata/v2
var writeFixtures = flag.String("write-fixtures", "", "write the golden data directories under this path and exit")

func fixtureWrite(origin string, seq uint64, key string, val []byte, deleted bool, ts uint64, client string, cliSeq uint64) write {
	w := write{ID: WriteID{Origin: origin, Seq: seq}, Key: key, Val: val, Deleted: deleted, Client: client, CliSeq: cliSeq}
	w.TS.Time, w.TS.Node = ts, origin
	return w
}

// fixtureWrites is the history the fixtures journal, in order: two
// origins interleaved, a write that loses last-writer-wins, a tombstone
// over a value, a nil value, and writes with and without the at-most-once
// client token.
var fixtureWrites = []write{
	fixtureWrite("s0", 1, "alpha", []byte("a1"), false, 1, "c1", 1),
	fixtureWrite("s1", 1, "alpha", []byte("a2"), false, 3, "c2", 1),
	fixtureWrite("s0", 2, "beta", []byte("b1"), false, 2, "c1", 2),
	fixtureWrite("s1", 2, "gamma", []byte("g1"), false, 4, "", 0),
	fixtureWrite("s0", 3, "gamma", nil, true, 5, "c1", 3),
	fixtureWrite("s0", 4, "alpha", []byte("a0"), false, 2, "", 0),
	fixtureWrite("s1", 3, "epsilon", nil, false, 6, "c2", 2),
}

// fixtureWant is the state every v1 directory must restore to.
var fixtureWant = struct {
	logs    map[string][]write
	data    map[string]write
	vec     clock.Vector
	lamport uint64
	cliSeq  map[string]uint64
	lastWID map[string]WriteID
}{
	logs: map[string][]write{
		"s0": {fixtureWrites[0], fixtureWrites[2], fixtureWrites[4], fixtureWrites[5]},
		"s1": {fixtureWrites[1], fixtureWrites[3], fixtureWrites[6]},
	},
	data: map[string]write{
		"alpha":   fixtureWrites[1],
		"beta":    fixtureWrites[2],
		"gamma":   fixtureWrites[4],
		"epsilon": fixtureWrites[6],
	},
	vec:     clock.Vector{{ID: "s0", Counter: 4}, {ID: "s1", Counter: 3}},
	lamport: 6,
	cliSeq:  map[string]uint64{"c1": 3, "c2": 2},
	lastWID: map[string]WriteID{"c1": {Origin: "s0", Seq: 3}, "c2": {Origin: "s1", Seq: 3}},
}

func fixtureServer(persist func(rec []byte)) *Server {
	return NewServer("s0", ServerConfig{Persist: persist})
}

func checkFixtureState(t *testing.T, s *Server) {
	t.Helper()
	for _, c := range []struct {
		what      string
		got, want any
	}{
		{"logs", s.logs, fixtureWant.logs},
		{"resolved values", s.data, fixtureWant.data},
		{"version vector", s.Vector(), fixtureWant.vec},
		{"lamport clock", s.lamport, fixtureWant.lamport},
		{"client sequence table", s.cliSeq, fixtureWant.cliSeq},
		{"client write-id table", s.lastWID, fixtureWant.lastWID},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%s restored to\n got  %#v\n want %#v", c.what, c.got, c.want)
		}
	}
}

// writeFixtureDirs journals fixtureWrites the way the anti-entropy path
// does into root/wal and snapshots the resulting server into root/ckpt.
func writeFixtureDirs(t *testing.T, root string) {
	t.Helper()
	log, err := wal.Open(filepath.Join(root, "wal"), wal.Options{Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	s := fixtureServer(func(rec []byte) {
		if _, err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	})
	for _, w := range fixtureWrites {
		if !s.applyRemote(w) {
			t.Fatalf("fixture write %+v does not extend its origin's log", w)
		}
		s.persistWrite(w)
	}
	seq := log.LastSeq()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wal.WriteSnapshot(filepath.Join(root, "ckpt"), seq, s.Checkpoint()); err != nil {
		t.Fatal(err)
	}
}

// fixtureRecords returns the journal records of testdata/<version>/wal.
func fixtureRecords(t *testing.T, version string) [][]byte {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "wal")
	wiretest.CopyTree(t, filepath.Join("testdata", version, "wal"), dir)
	log, err := wal.Open(dir, wal.Options{Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	var recs [][]byte
	err = log.Replay(1, func(_ uint64, rec []byte) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(fixtureWrites) {
		t.Fatalf("%s journal holds %d records, want %d", version, len(recs), len(fixtureWrites))
	}
	return recs
}

// fixtureCheckpoint returns the state image of testdata/<version>/ckpt.
func fixtureCheckpoint(t *testing.T, version string) []byte {
	t.Helper()
	_, state, found, err := wal.LatestSnapshot(filepath.Join("testdata", version, "ckpt"))
	if err != nil || !found {
		t.Fatalf("no checkpoint in %s fixture: found=%v err=%v", version, found, err)
	}
	return state
}

// TestFixtureV1 replays the committed v1 directories with the current
// code. With -write-fixtures it writes a fresh set instead.
func TestFixtureV1(t *testing.T) {
	if *writeFixtures != "" {
		if err := os.RemoveAll(*writeFixtures); err != nil {
			t.Fatal(err)
		}
		writeFixtureDirs(t, *writeFixtures)
		t.Skipf("wrote fixtures under %s", *writeFixtures)
	}
	t.Run("wal", func(t *testing.T) {
		s := fixtureServer(nil)
		for _, rec := range fixtureRecords(t, "v1") {
			if err := s.ReplayRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
		checkFixtureState(t, s)
	})
	t.Run("ckpt", func(t *testing.T) {
		s := fixtureServer(nil)
		if err := s.RestoreState(fixtureCheckpoint(t, "v1")); err != nil {
			t.Fatal(err)
		}
		checkFixtureState(t, s)
	})
}
