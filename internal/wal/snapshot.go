package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Checkpoint snapshots: a full serialized state image stamped with the
// WAL sequence number it covers. Layout is [8B seq LE][state][4B CRC32C
// over seq+state]. Written to a temp file, fsynced, then renamed into
// place so a crash mid-checkpoint leaves the previous snapshot intact.

const (
	snapSuffix  = ".ckpt"
	snapTrailer = 4
	snapHeader  = 8
)

func snapshotName(seq uint64) string { return fmt.Sprintf("snap-%016x%s", seq, snapSuffix) }

// WriteSnapshot atomically persists a checkpoint of state covering all
// WAL records with sequence numbers <= seq, then prunes older
// snapshots, keeping one predecessor as a fallback.
func WriteSnapshot(dir string, seq uint64, state []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	// The header, the state and the trailer are written in turn: the
	// state, the whole of a node's checkpoint, is not copied to frame it.
	var head [snapHeader]byte
	var trail [snapTrailer]byte
	binary.LittleEndian.PutUint64(head[:], seq)
	crc := crc32.Update(crc32.Checksum(head[:], castagnoli), castagnoli, state)
	binary.LittleEndian.PutUint32(trail[:], crc)

	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer os.Remove(tmp.Name())
	for _, b := range [][]byte{head[:], state, trail[:]} {
		if _, err := tmp.Write(b); err != nil {
			tmp.Close()
			return fmt.Errorf("wal: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, snapshotName(seq))); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	syncDir(dir)
	pruneSnapshots(dir, seq)
	return nil
}

// LatestSnapshot loads the newest intact checkpoint in dir. A snapshot
// whose CRC fails is skipped (never trusted), falling back to an older
// one. found is false when dir holds no usable snapshot.
func LatestSnapshot(dir string) (seq uint64, state []byte, found bool, err error) {
	seqs, err := snapshotSeqs(dir)
	if err != nil || len(seqs) == 0 {
		return 0, nil, false, err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		buf, rerr := os.ReadFile(filepath.Join(dir, snapshotName(seqs[i])))
		if rerr != nil || len(buf) < snapHeader+snapTrailer {
			continue
		}
		body := buf[:len(buf)-snapTrailer]
		crc := binary.LittleEndian.Uint32(buf[len(buf)-snapTrailer:])
		if crc32.Checksum(body, castagnoli) != crc {
			continue
		}
		if got := binary.LittleEndian.Uint64(body[:snapHeader]); got != seqs[i] {
			continue
		}
		return seqs[i], body[snapHeader:], true, nil
	}
	return 0, nil, false, nil
}

// snapshotSeqs lists the checkpoint sequence numbers present in dir,
// ascending.
func snapshotSeqs(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	var seqs []uint64
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		s, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), snapSuffix), 16, 64)
		if perr != nil {
			continue
		}
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// pruneSnapshots removes snapshots older than latest, keeping the
// single newest predecessor as a fallback against a bad latest image.
func pruneSnapshots(dir string, latest uint64) {
	seqs, err := snapshotSeqs(dir)
	if err != nil {
		return
	}
	var older []uint64
	for _, s := range seqs {
		if s < latest {
			older = append(older, s)
		}
	}
	for i := 0; i+1 < len(older); i++ {
		os.Remove(filepath.Join(dir, snapshotName(older[i])))
	}
}

// syncDir fsyncs a directory so renames within it are durable; best
// effort on filesystems that refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
