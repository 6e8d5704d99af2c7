package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
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
// snapshots, keeping one predecessor as a fallback. state is streamed
// into the file: the header, then state's bytes as its WriteTo emits them
// (the CRC updated as they pass), then the trailer, so a node's image is
// never held whole in memory to be framed. If WriteTo fails, the previous
// snapshot stays the latest and no temp file is left.
func WriteSnapshot(dir string, seq uint64, state io.WriterTo) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := streamSnapshot(tmp, seq, state); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: %w", err)
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

// snapWriter is the buffered, checksumming writer a snapshot streams
// through. Writers are kept in snapWriters between checkpoints, not in a
// sync.Pool, which a collection would empty between two checkpoints.
type snapWriter struct {
	bw  *bufio.Writer
	crc uint32
}

func (w *snapWriter) Write(p []byte) (int, error) {
	w.crc = crc32.Update(w.crc, castagnoli, p)
	return w.bw.Write(p)
}

const snapBufSize = 64 << 10

// snapWriters holds idle writers; its capacity bounds how many buffers
// outlive the checkpoints that used them.
var snapWriters = make(chan *snapWriter, 2)

// streamSnapshot writes [seq][state][crc] to f through an idle writer.
func streamSnapshot(f *os.File, seq uint64, state io.WriterTo) error {
	var w *snapWriter
	select {
	case w = <-snapWriters:
		w.bw.Reset(f)
	default:
		w = &snapWriter{bw: bufio.NewWriterSize(f, snapBufSize)}
	}
	defer func() {
		w.bw.Reset(nil)
		select {
		case snapWriters <- w:
		default:
		}
	}()
	var frame [snapHeader]byte
	w.crc = 0
	binary.LittleEndian.PutUint64(frame[:], seq)
	if _, err := w.Write(frame[:]); err != nil {
		return err
	}
	if _, err := state.WriteTo(w); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(frame[:snapTrailer], w.crc)
	// The trailer bypasses w: the CRC does not cover itself.
	if _, err := w.bw.Write(frame[:snapTrailer]); err != nil {
		return err
	}
	return w.bw.Flush()
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
