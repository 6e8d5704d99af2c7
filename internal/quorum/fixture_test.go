package quorum

import (
	"bytes"
	"errors"
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/clock"
	"repro/internal/lsm"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/wiretest"
)

// Golden on-disk fixtures. testdata/<version>/ holds three data
// directories laid out the way server.New expects a DataDir, each
// isolating one decoder:
//
//	wal/   WAL segments only: every record kind, keyed and serial
//	ckpt/  one checkpoint of the same state, and no log
//	lsm/   lsm/shard-0 with the sibling sets flushed to an SSTable, and no log
//
// v0 was written by this generator at the last commit whose formats were
// gob (4c5e599); the current code must refuse it with
// wire.ErrFormatTooOld (server.TestFormatTooOld boots server.New on each
// directory). v1 was written when the quorum formats went binary; its
// wal/ and ckpt/ carry the node's own dot counters (a Mint record, a
// fifth checkpoint list), and its lsm/ the gob manifest of that time, so
// all three are refused. v2 holds lsm/ with the binary manifest over
// tables that carried sequence numbers, and is refused too. v3 holds
// lsm/ again, with one value per key and no sequence numbers, and must
// replay to fixtureWant below. v4 holds wal/ and ckpt/ without dot
// counters, and must replay to fixtureWant and the rest of the state
// checkFixtureRest names. The next format change writes a fresh set,
// commits the directories that differ as v5, and decides for their
// predecessors between replaying and refusing; committed files are never
// regenerated:
//
//	go test ./internal/quorum -run TestFixtureV1 -write-fixtures /tmp/v5
var writeFixtures = flag.String("write-fixtures", "", "write the golden data directories under this path and exit")

func fixtureEntry(node string, ctr uint64, ctx clock.Vector, val []byte, deleted bool) clock.SiblingEntry[record] {
	return clock.SiblingEntry[record]{
		DVV:   clock.DVV{Dot: clock.Dot{Node: node, Counter: ctr}, Context: ctx},
		Value: record{Value: val, Deleted: deleted},
	}
}

// fixtureInstalls is the sibling-set history the fixtures journal, in
// order: a superseded write, two concurrent siblings, a tombstone, and a
// nil value under a nil context.
var fixtureInstalls = []struct {
	key string
	e   clock.SiblingEntry[record]
}{
	{"alpha", fixtureEntry("c1", 1, clock.Vector{}, []byte("a1"), false)},
	{"alpha", fixtureEntry("c1", 2, clock.Vector{{ID: "c1", Counter: 1}}, []byte("a2"), false)},
	{"beta", fixtureEntry("c1", 1, clock.Vector{}, []byte("b1"), false)},
	{"beta", fixtureEntry("c2", 1, clock.Vector{{ID: "s0", Counter: 4}}, []byte("b2"), false)},
	{"gamma", fixtureEntry("c1", 2, clock.Vector{}, []byte("g1"), false)},
	{"gamma", fixtureEntry("c1", 3, clock.Vector{{ID: "c1", Counter: 2}, {ID: "c2", Counter: 7}}, nil, true)},
	{"epsilon", fixtureEntry("s0", 1, nil, nil, false)},
}

// fixtureWant is the state every current directory must restore to: the
// surviving (dot, value, tombstone) triples per key, in stored order.
var fixtureWant = map[string][]clock.SiblingEntry[record]{
	"alpha":   {fixtureInstalls[1].e},
	"beta":    {fixtureInstalls[2].e, fixtureInstalls[3].e},
	"gamma":   {fixtureInstalls[5].e},
	"epsilon": {fixtureInstalls[6].e},
}

var fixtureHint = fixtureEntry("c3", 1, clock.Vector{{ID: "c1", Counter: 2}}, []byte("h1"), false)

func fixtureConfig() Config {
	return Config{Ring: []string{"s0", "s1", "s2"}, N: 3, R: 2, W: 2, Shards: 2}
}

// writeFixtureDirs drives one node's journaling paths into root/wal,
// snapshots it into root/ckpt, and flushes the same sibling sets through
// an LSM engine into root/lsm.
func writeFixtureDirs(t *testing.T, root string) {
	t.Helper()
	walDir := filepath.Join(root, "wal")
	log, err := wal.Open(walDir, wal.Options{Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fixtureConfig()
	cfg.PersistAt = func(_ int, rec []byte) {
		if _, err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	n := NewNode("s0", cfg)
	for _, in := range fixtureInstalls {
		n.installEntry(0, in.key, in.e)
	}
	// One record of every other kind, applied the way the live paths
	// apply them: a hint that stays queued, a hint that is acknowledged
	// away, two transfer completions, a geo cursor.
	for _, h := range []hintRec{
		{Intended: "s2", Key: "hinted", Entry: fixtureHint},
		{Intended: "s1", Key: "acked", Entry: fixtureHint},
	} {
		n.storeHint(h.Intended, h.Key, h.Entry)
		n.persistRecord(0, walRecord{Hint: &h})
	}
	n.hintSource("s1").acked(sinkEnv{}, []aeEntry{{Key: "acked", Entries: []clock.SiblingEntry[record]{fixtureHint}}})
	for _, idx := range []int{0, 2} {
		n.markTransferDone(3, idx)
		n.persistRecord(0, walRecord{TransferDone: &transferDoneRec{Seq: 3, Idx: idx, Start: 10, End: 20}})
	}
	n.geoRestoreAck("s1", 9)
	n.persistRecord(0, walRecord{GeoAck: &geoAckRec{Peer: "s1", Seq: 9}})
	seq := log.LastSeq()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	if err := wal.WriteSnapshot(filepath.Join(root, "ckpt"), seq, n.Checkpoint()); err != nil {
		t.Fatal(err)
	}

	eng, err := lsm.Open(lsm.Options{Dir: filepath.Join(root, "lsm", "lsm", "shard-0")})
	if err != nil {
		t.Fatal(err)
	}
	lcfg := fixtureConfig()
	lcfg.Shards = 1
	lcfg.Storage = func(int) storage.Engine { return eng }
	ln := NewNode("s0", lcfg)
	for _, in := range fixtureInstalls {
		ln.installEntry(0, in.key, in.e)
	}
	if err := ln.Close(); err != nil { // flushes the memtable to an SSTable
		t.Fatal(err)
	}
}

// The generator writes one set of bytes: vector contexts and the
// checkpoint's lists are written in order, so the next format
// generation's fixtures differ from this one's only where the format did.
func TestFixtureGeneratorIsDeterministic(t *testing.T) {
	first := t.TempDir()
	writeFixtureDirs(t, first)
	for run := 0; run < 3; run++ {
		again := t.TempDir()
		writeFixtureDirs(t, again)
		err := filepath.WalkDir(first, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, _ := filepath.Rel(first, path)
			want, _ := os.ReadFile(path)
			if got, err := os.ReadFile(filepath.Join(again, rel)); err != nil || !bytes.Equal(got, want) {
				t.Errorf("run %d: %s differs from the first run's (%v)", run+2, rel, err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// checkFixtureSets fails unless n stores exactly fixtureWant.
func checkFixtureSets(t *testing.T, n *Node) {
	t.Helper()
	stored := 0
	for _, sh := range n.shards {
		stored += sh.store.Len()
	}
	if stored != len(fixtureWant) {
		t.Fatalf("node stores %d keys, want %d", stored, len(fixtureWant))
	}
	for key, want := range fixtureWant {
		if got := n.localEntries(key); !reflect.DeepEqual(got, want) {
			t.Fatalf("key %q restored to\n got  %#v\n want %#v", key, got, want)
		}
	}
}

// checkFixtureRest fails unless n holds the non-sibling state the wal and
// ckpt fixtures carry.
func checkFixtureRest(t *testing.T, n *Node) {
	t.Helper()
	wantHints := map[string]map[string][]clock.SiblingEntry[record]{"s2": {"hinted": {fixtureHint}}}
	if !reflect.DeepEqual(n.hints, wantHints) {
		t.Fatalf("hints restored to %#v, want %#v", n.hints, wantHints)
	}
	if want := map[uint64]map[int]bool{3: {0: true, 2: true}}; !reflect.DeepEqual(n.xferDone, want) {
		t.Fatalf("transfer completions restored to %v, want %v", n.xferDone, want)
	}
	if g := n.geoPeers["s1"]; g == nil || g.acked != 9 {
		t.Fatalf("geo cursor for s1 restored to %+v, want acked=9", g)
	}
}

// TestFixtureV1 replays the committed directories in the current formats
// and refuses the retired ones (the name is as old as v1). With
// -write-fixtures it writes a fresh set instead.
func TestFixtureV1(t *testing.T) {
	if *writeFixtures != "" {
		if err := os.RemoveAll(*writeFixtures); err != nil {
			t.Fatal(err)
		}
		writeFixtureDirs(t, *writeFixtures)
		t.Skipf("wrote fixtures under %s", *writeFixtures)
	}
	root := t.TempDir()
	wiretest.CopyTree(t, filepath.Join("testdata", "v4"), root)
	for _, dir := range []string{"v1/wal", "v1/ckpt", "v1/lsm", "v2/lsm", "v3/lsm"} {
		gen, kind := filepath.Split(dir)
		wiretest.CopyTree(t, filepath.Join("testdata", dir), filepath.Join(root, kind+"-"+filepath.Clean(gen)))
	}

	t.Run("wal", func(t *testing.T) {
		log, err := wal.Open(filepath.Join(root, "wal"), wal.Options{Policy: wal.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		defer log.Close()
		n := NewNode("s0", fixtureConfig())
		keyed, serial := 0, 0
		err = log.Replay(1, func(_ uint64, rec []byte) error {
			if n.ReplayDomain(rec) > 0 {
				keyed++
			} else {
				serial++
			}
			return n.ReplayRecord(rec)
		})
		if err != nil {
			t.Fatal(err)
		}
		if keyed == 0 || serial == 0 {
			t.Fatalf("fixture journal has %d keyed and %d serial records, want both", keyed, serial)
		}
		checkFixtureSets(t, n)
		checkFixtureRest(t, n)

		old, err := wal.Open(filepath.Join(root, "wal-v1"), wal.Options{Policy: wal.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		defer old.Close()
		n = NewNode("s0", fixtureConfig())
		if err := old.Replay(1, func(_ uint64, rec []byte) error { return n.ReplayRecord(rec) }); !errors.Is(err, wire.ErrFormatTooOld) {
			t.Fatalf("v1 journal, with a dot counter record: %v, want wire.ErrFormatTooOld", err)
		}
	})
	t.Run("ckpt", func(t *testing.T) {
		_, state, found, err := wal.LatestSnapshot(filepath.Join(root, "ckpt"))
		if err != nil || !found {
			t.Fatalf("no checkpoint in fixture: found=%v err=%v", found, err)
		}
		n := NewNode("s0", fixtureConfig())
		if err := n.RestoreState(state); err != nil {
			t.Fatal(err)
		}
		checkFixtureSets(t, n)
		checkFixtureRest(t, n)

		_, state, found, err = wal.LatestSnapshot(filepath.Join(root, "ckpt-v1"))
		if err != nil || !found {
			t.Fatalf("no checkpoint in v1 fixture: found=%v err=%v", found, err)
		}
		if err := NewNode("s0", fixtureConfig()).RestoreState(state); !errors.Is(err, wire.ErrFormatTooOld) {
			t.Fatalf("v1 checkpoint, with dot counters: %v, want wire.ErrFormatTooOld", err)
		}
	})
	t.Run("lsm", func(t *testing.T) {
		for gen, dir := range map[string]string{"v1 (gob manifest)": "lsm-v1", "v2 (sequence numbers)": "lsm-v2"} {
			if eng, err := lsm.Open(lsm.Options{Dir: filepath.Join(root, dir, "lsm", "shard-0")}); !errors.Is(err, wire.ErrFormatTooOld) {
				if err == nil {
					eng.Close()
				}
				t.Fatalf("%s lsm directory: %v, want wire.ErrFormatTooOld", gen, err)
			}
		}
		eng, err := lsm.Open(lsm.Options{Dir: filepath.Join(root, "lsm-v3", "lsm", "shard-0")})
		if err != nil {
			t.Fatal(err)
		}
		cfg := fixtureConfig()
		cfg.Shards = 1
		cfg.Storage = func(int) storage.Engine { return eng }
		n := NewNode("s0", cfg)
		defer n.Close()
		checkFixtureSets(t, n)
	})
}
