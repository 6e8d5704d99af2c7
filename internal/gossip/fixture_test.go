package gossip

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
//	wal/   WAL segments only: one record per installed write
//	ckpt/  one checkpoint of the same state, and no log
//
// v0 was written by this generator at the last commit whose formats were
// gob (d8f6af9); the current code must refuse it with
// wire.ErrFormatTooOld. v1 is written by the current code and must replay
// to exactly fixtureWant. The next format change adds v2 the same way and
// decides for v1 between replaying and refusing; committed files are
// never regenerated:
//
//	go test ./internal/gossip -run TestFixtureV1 -write-fixtures testdata/v2
var writeFixtures = flag.String("write-fixtures", "", "write the golden data directories under this path and exit")

func fixtureTS(wall int64, logical uint32, node string) clock.HLCTimestamp {
	return clock.HLCTimestamp{Wall: wall, Logical: logical, Node: node}
}

// fixtureWrites is the history the fixtures journal, in order: a
// superseded write, a tombstone over a value, and a nil value.
var fixtureWrites = []Write{
	{Key: "alpha", Value: []byte("a1"), TS: fixtureTS(10, 0, "n1")},
	{Key: "alpha", Value: []byte("a2"), TS: fixtureTS(20, 0, "n2")},
	{Key: "beta", Value: []byte("b1"), TS: fixtureTS(15, 3, "n1")},
	{Key: "gamma", Value: []byte("g1"), TS: fixtureTS(5, 0, "n0")},
	{Key: "gamma", TS: fixtureTS(30, 1, "n2"), Deleted: true},
	{Key: "epsilon", TS: fixtureTS(7, 0, "n0")},
}

// fixtureWant is the write map every v1 directory must restore to.
var fixtureWant = map[string]Write{
	"alpha":   fixtureWrites[1],
	"beta":    fixtureWrites[2],
	"gamma":   fixtureWrites[4],
	"epsilon": fixtureWrites[5],
}

func fixtureNode(persist func(rec []byte)) *Node {
	return NewNode("n0", Config{Persist: persist}, func() int64 { return 0 })
}

// writeFixtureDirs journals fixtureWrites the way apply does into
// root/wal and snapshots the resulting node into root/ckpt.
func writeFixtureDirs(t *testing.T, root string) {
	t.Helper()
	log, err := wal.Open(filepath.Join(root, "wal"), wal.Options{Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	n := fixtureNode(func(rec []byte) {
		if _, err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	})
	for _, w := range fixtureWrites {
		if !n.install(w) {
			t.Fatalf("fixture write %+v lost the LWW comparison", w)
		}
		n.persist(w)
	}
	seq := log.LastSeq()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wal.WriteSnapshot(filepath.Join(root, "ckpt"), seq, n.Checkpoint()); err != nil {
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
		n := fixtureNode(nil)
		for _, rec := range fixtureRecords(t, "v1") {
			if err := n.ReplayRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(n.data, fixtureWant) {
			t.Fatalf("journal replayed to\n got  %#v\n want %#v", n.data, fixtureWant)
		}
	})
	t.Run("ckpt", func(t *testing.T) {
		n := fixtureNode(nil)
		if err := n.RestoreState(fixtureCheckpoint(t, "v1")); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(n.data, fixtureWant) {
			t.Fatalf("checkpoint restored to\n got  %#v\n want %#v", n.data, fixtureWant)
		}
	})
}
