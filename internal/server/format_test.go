package server

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/wiretest"
)

// fixture names one golden data directory: <model>/testdata/<version>/<dir>
// (see fixture_test.go in internal/quorum, internal/gossip and
// internal/session for what each holds).
type fixture struct {
	name, model, version, dir, engine string
}

// dataDir copies the fixture so the server can open it for append.
func (f fixture) dataDir(t *testing.T) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), f.dir)
	wiretest.CopyTree(t, filepath.Join("..", f.model, "testdata", f.version, f.dir), dst)
	return dst
}

func (f fixture) config(t *testing.T, dataDir string) Config {
	t.Helper()
	addr := reservePorts(t, 1)[0]
	return Config{
		ID:                 "s0",
		Model:              f.model,
		Peers:              map[string]string{"s0": addr},
		DataDir:            dataDir,
		Fsync:              wal.SyncNone,
		CheckpointInterval: -1,
		Engine:             f.engine,
		Shards:             1,
	}
}

// readTree returns every file under root by relative path.
func readTree(t *testing.T, root string) map[string]string {
	t.Helper()
	files := make(map[string]string)
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		rel, _ := filepath.Rel(root, path) // path is under root by construction
		files[rel] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestFormatTooOld boots a node on each data directory a gob commit
// wrote — journal records and a checkpoint of every model, sibling sets
// in an SSTable, an LSM manifest — and on the quorum directories of the
// binary layouts since retired. Every one must be refused with the one
// typed error, not decoded into something else and not left to panic on a
// first read, and a refusal must leave every file as it found it.
func TestFormatTooOld(t *testing.T) {
	for _, f := range []fixture{
		{"wal", "quorum", "v0", "wal", "mem"},
		{"ckpt", "quorum", "v0", "ckpt", "mem"},
		{"lsm", "quorum", "v0", "lsm", "lsm"},
		{"wal-v1", "quorum", "v1", "wal", "mem"},   // a record of the node's own dot counter
		{"ckpt-v1", "quorum", "v1", "ckpt", "mem"}, // a list of the node's own dot counters
		{"lsm-v1", "quorum", "v1", "lsm", "lsm"},   // binary sibling sets under a gob manifest
		{"lsm-v2", "quorum", "v2", "lsm", "lsm"},   // tables that carried sequence numbers
		{"gossip-wal", "gossip", "v0", "wal", ""},
		{"gossip-ckpt", "gossip", "v0", "ckpt", ""},
		{"session-wal", "session", "v0", "wal", ""},
		{"session-ckpt", "session", "v0", "ckpt", ""},
	} {
		t.Run(f.name, func(t *testing.T) {
			dir := f.dataDir(t)
			before := readTree(t, dir)
			s, err := New(f.config(t, dir))
			if err == nil {
				s.Close()
				t.Fatal("booted on a data directory in a retired format")
			}
			if !errors.Is(err, wire.ErrFormatTooOld) {
				t.Fatalf("refused with %v, want wire.ErrFormatTooOld", err)
			}
			// Opening the journal may add an empty segment to a directory
			// that had none; nothing that was there may change or go.
			after := readTree(t, dir)
			for name, content := range before {
				if got, ok := after[name]; !ok || got != content {
					t.Errorf("the refused boot removed or rewrote %s", name)
				}
			}
		})
	}
}

// The same directories in the current formats boot and serve what they
// hold (TestFixtureV1 in each model's package checks the exact state).
func TestFormatCurrentBoots(t *testing.T) {
	for _, f := range []fixture{
		{"wal", "quorum", "v4", "wal", "mem"},
		{"ckpt", "quorum", "v4", "ckpt", "mem"},
		{"lsm", "quorum", "v3", "lsm", "lsm"},
		{"gossip-wal", "gossip", "v1", "wal", ""},
		{"gossip-ckpt", "gossip", "v1", "ckpt", ""},
		{"session-wal", "session", "v1", "wal", ""},
		{"session-ckpt", "session", "v1", "ckpt", ""},
	} {
		t.Run(f.name, func(t *testing.T) {
			s, err := New(f.config(t, f.dataDir(t)))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			c := dialNode(t, s, "cli")
			if v, found, err := c.Get("alpha"); err != nil || !found || string(v) != "a2" {
				t.Fatalf("get alpha = %q/%v/%v, want a2", v, found, err)
			}
			if _, found, err := c.Get("gamma"); err != nil || found {
				t.Fatalf("tombstoned gamma: found=%v err=%v", found, err)
			}
		})
	}
}

// The checkpointer must not make the actor loop snapshot state that the
// last checkpoint already covers: an idle node captures nothing, and one
// journaled record buys exactly one checkpoint.
func TestCheckpointSkipsIdleNode(t *testing.T) {
	d, err := openDurability(t.TempDir(), wal.SyncNone, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	captures := 0
	capture := func() (io.WriterTo, uint64, bool) {
		captures++
		return strings.NewReader("state"), d.log.LastSeq(), true
	}
	for tick := 0; tick < 3; tick++ {
		d.checkpoint(capture)
	}
	if captures != 0 {
		t.Fatalf("idle node: %d state captures over three intervals, want 0", captures)
	}
	d.persist([]byte("one record"))
	for tick := 0; tick < 3; tick++ {
		d.checkpoint(capture)
	}
	if captures != 1 || d.CheckpointSeq() != 1 {
		t.Fatalf("after one record: %d captures, checkpoint @%d; want 1 capture @1", captures, d.CheckpointSeq())
	}
}
