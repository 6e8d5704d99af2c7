package server

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/quorum"
	"repro/internal/wal"
)

// fixtureDataDir copies one golden data directory of internal/quorum
// (see fixture_test.go there for what each holds) so the server can open
// it for append.
func fixtureDataDir(t *testing.T, version, name string) string {
	t.Helper()
	src := filepath.Join("..", "quorum", "testdata", version, name)
	dst := filepath.Join(t.TempDir(), name)
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

func fixtureConfig(t *testing.T, dataDir, engine string) Config {
	t.Helper()
	addr := reservePorts(t, 1)[0]
	return Config{
		ID:                 "s0",
		Model:              "quorum",
		Peers:              map[string]string{"s0": addr},
		DataDir:            dataDir,
		Fsync:              wal.SyncNone,
		CheckpointInterval: -1,
		Engine:             engine,
		Shards:             1,
	}
}

// TestFormatTooOld boots a node on each data directory the last gob
// commit wrote — journal records, a checkpoint, sibling sets in an
// SSTable. Every one must be refused with the typed error, not decoded
// into something else and not left to panic on a first read.
func TestFormatTooOld(t *testing.T) {
	for name, engine := range map[string]string{"wal": "mem", "ckpt": "mem", "lsm": "lsm"} {
		t.Run(name, func(t *testing.T) {
			s, err := New(fixtureConfig(t, fixtureDataDir(t, "v0", name), engine))
			if err == nil {
				s.Close()
				t.Fatal("booted on a data directory in the v0 formats")
			}
			if !errors.Is(err, quorum.ErrFormatTooOld) {
				t.Fatalf("refused with %v, want quorum.ErrFormatTooOld", err)
			}
		})
	}
}

// The same three directories in the current formats boot and serve what
// they hold (internal/quorum's TestFixtureV1 checks the exact sets).
func TestFormatCurrentBoots(t *testing.T) {
	for name, engine := range map[string]string{"wal": "mem", "ckpt": "mem", "lsm": "lsm"} {
		t.Run(name, func(t *testing.T) {
			s, err := New(fixtureConfig(t, fixtureDataDir(t, "v1", name), engine))
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
	capture := func() ([]byte, uint64, bool) {
		captures++
		return []byte("state"), d.log.LastSeq(), true
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
