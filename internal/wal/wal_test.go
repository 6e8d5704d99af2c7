package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

func appendN(t *testing.T, l *Log, n int, tag string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("%s-%04d", tag, i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
}

func collect(t *testing.T, l *Log, from uint64) map[uint64]string {
	t.Helper()
	got := make(map[uint64]string)
	err := l.Replay(from, func(seq uint64, rec []byte) error {
		got[seq] = string(rec)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 50, "rec")
	if l.LastSeq() != 50 {
		t.Fatalf("LastSeq = %d, want 50", l.LastSeq())
	}
	got := collect(t, l, 1)
	if len(got) != 50 || got[1] != "rec-0000" || got[50] != "rec-0049" {
		t.Fatalf("replay mismatch: %d records, got[1]=%q got[50]=%q", len(got), got[1], got[50])
	}
	if got := collect(t, l, 48); len(got) != 3 {
		t.Fatalf("partial replay from 48: %d records, want 3", len(got))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: sequence numbering and contents must survive.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastSeq() != 50 {
		t.Fatalf("reopened LastSeq = %d, want 50", l2.LastSeq())
	}
	seq, err := l2.Append([]byte("after"))
	if err != nil || seq != 51 {
		t.Fatalf("append after reopen: seq=%d err=%v, want 51", seq, err)
	}
}

func TestSegmentRotationAndTruncateThrough(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 40, "rotate") // ~24B per record -> many segments
	if l.Segments() < 3 {
		t.Fatalf("expected rotation, got %d segments", l.Segments())
	}
	if got := collect(t, l, 1); len(got) != 40 {
		t.Fatalf("replay across segments: %d records, want 40", len(got))
	}

	// Drop everything a checkpoint at seq 20 covers: only whole sealed
	// segments at or below it go; records > 20 must all survive.
	before := l.DiskBytes()
	if err := l.TruncateThrough(20); err != nil {
		t.Fatal(err)
	}
	if l.DiskBytes() >= before {
		t.Fatalf("TruncateThrough freed nothing (%d -> %d bytes)", before, l.DiskBytes())
	}
	got := collect(t, l, 21)
	for seq := uint64(21); seq <= 40; seq++ {
		if _, ok := got[seq]; !ok {
			t.Fatalf("record %d lost by TruncateThrough", seq)
		}
	}
	l.Close()

	// Reopen after truncation: appends continue from seq 40.
	l2, err := Open(dir, Options{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastSeq() != 40 {
		t.Fatalf("LastSeq after reopen = %d, want 40", l2.LastSeq())
	}
}

func TestTornTailTruncatedAtFirstCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 10, "torn")
	l.Close()

	// Corrupt record 7 in place: flip a payload byte.
	segs, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil || len(segs) != 1 {
		t.Fatalf("glob: %v (%d segments)", err, len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	idx := bytes.Index(data, []byte("torn-0006"))
	if idx < 0 {
		t.Fatal("record 7 not found in segment")
	}
	data[idx] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastSeq() != 6 {
		t.Fatalf("LastSeq after corruption = %d, want 6", l2.LastSeq())
	}
	got := collect(t, l2, 1)
	if len(got) != 6 {
		t.Fatalf("replay returned %d records, want 6 (nothing past the corruption)", len(got))
	}
	// The log must accept appends again, reusing the truncated sequence.
	seq, err := l2.Append([]byte("fresh"))
	if err != nil || seq != 7 {
		t.Fatalf("append after recovery: seq=%d err=%v, want 7", seq, err)
	}
}

func TestCorruptionDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 30, "multi")
	if l.Segments() < 3 {
		t.Fatalf("need >=3 segments, got %d", l.Segments())
	}
	l.Close()

	// Corrupt a byte in the FIRST segment: recovery must stop there and
	// delete every later segment, even though they are intact.
	segs, _ := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	os.WriteFile(segs[0], data, 0o644)

	l2, err := Open(dir, Options{SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	after, _ := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if len(after) != 1 {
		t.Fatalf("later segments not dropped: %d files remain", len(after))
	}
	if l2.LastSeq() >= 30 {
		t.Fatalf("LastSeq = %d, corruption in segment 1 must lose the tail", l2.LastSeq())
	}
	got := collect(t, l2, 1)
	for seq := range got {
		if seq > l2.LastSeq() {
			t.Fatalf("replay resurrected seq %d past recovered tail %d", seq, l2.LastSeq())
		}
	}
}

func TestBatchPolicyFlushes(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncBatch, BatchInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5, "batch")
	deadline := time.Now().Add(2 * time.Second)
	for l.Stats().Syncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("batch flusher never fsynced")
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("x")); err == nil {
		t.Fatal("append after close must fail")
	}
}

func TestSnapshotRoundTripAndAtomicity(t *testing.T) {
	dir := t.TempDir()
	if _, _, found, err := LatestSnapshot(dir); err != nil || found {
		t.Fatalf("empty dir: found=%v err=%v", found, err)
	}
	if err := WriteSnapshot(dir, 10, bytes.NewReader([]byte("state-ten"))); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(dir, 25, bytes.NewReader([]byte("state-twentyfive"))); err != nil {
		t.Fatal(err)
	}
	seq, state, found, err := LatestSnapshot(dir)
	if err != nil || !found || seq != 25 || string(state) != "state-twentyfive" {
		t.Fatalf("latest = (%d, %q, %v, %v)", seq, state, found, err)
	}

	// Corrupt the newest snapshot: recovery must fall back to seq 10.
	data, err := os.ReadFile(filepath.Join(dir, snapshotName(25)))
	if err != nil {
		t.Fatal(err)
	}
	data[snapHeader+2] ^= 0xff
	os.WriteFile(filepath.Join(dir, snapshotName(25)), data, 0o644)
	seq, state, found, err = LatestSnapshot(dir)
	if err != nil || !found || seq != 10 || string(state) != "state-ten" {
		t.Fatalf("fallback = (%d, %q, %v, %v), want (10, state-ten)", seq, state, found, err)
	}

	// A stray temp file (crash mid-write) is ignored.
	os.WriteFile(filepath.Join(dir, "snap-xyz.tmp"), []byte("garbage"), 0o644)
	if _, _, found, err = LatestSnapshot(dir); err != nil || !found {
		t.Fatalf("temp file broke recovery: found=%v err=%v", found, err)
	}
}

func TestSnapshotPruneKeepsFallback(t *testing.T) {
	dir := t.TempDir()
	for _, seq := range []uint64{5, 10, 15, 20} {
		if err := WriteSnapshot(dir, seq, bytes.NewReader([]byte("s"))); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := snapshotSeqs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || seqs[0] != 15 || seqs[1] != 20 {
		t.Fatalf("prune kept %v, want [15 20]", seqs)
	}
}

// A checkpoint file is [8B seq LE][state][4B CRC32C over seq+state],
// byte for byte, written in pieces or not: checkpoints already on disk
// must keep loading.
func TestSnapshotFileLayout(t *testing.T) {
	dir := t.TempDir()
	for i, state := range [][]byte{nil, []byte("s"), bytes.Repeat([]byte{0xE3, 0x00, 0x7F}, 5000), bytes.Repeat([]byte{0x5A, 0xA5}, 100_000)} {
		seq := uint64(0x0102030405060708) + uint64(len(state))
		// The larger states are streamed in 7-byte and 40,000-byte pieces,
		// below and above the writer's buffer.
		var image io.WriterTo = bytes.NewReader(state)
		if i >= 2 {
			image = pieces{b: state, n: 7 + 39_993*(i-2)}
		}
		if err := WriteSnapshot(dir, seq, image); err != nil {
			t.Fatal(err)
		}
		want := binary.LittleEndian.AppendUint64(nil, seq)
		want = append(want, state...)
		want = binary.LittleEndian.AppendUint32(want, crc32.Checksum(want, crc32.MakeTable(crc32.Castagnoli)))
		got, err := os.ReadFile(filepath.Join(dir, snapshotName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("a %d-byte state: file holds %d bytes that differ from the layout's %d", len(state), len(got), len(want))
		}
		if gotSeq, gotState, found, err := LatestSnapshot(dir); err != nil || !found || gotSeq != seq || !bytes.Equal(gotState, state) {
			t.Fatalf("LatestSnapshot = %d, %d bytes, %v, %v", gotSeq, len(gotState), found, err)
		}
	}
}

// pieces streams b in writes of n bytes; with fail set it fails once it
// has written half of b.
type pieces struct {
	b    []byte
	n    int
	fail bool
}

func (p pieces) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for off := 0; off < len(p.b); off += p.n {
		if p.fail && off >= len(p.b)/2 {
			return total, errors.New("image failed midway")
		}
		n, err := w.Write(p.b[off:min(off+p.n, len(p.b))])
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// An image that fails while it streams leaves the previous snapshot the
// latest, and no temp file behind.
func TestSnapshotFailedImageKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshot(dir, 10, bytes.NewReader([]byte("state-ten"))); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("x"), 3*snapBufSize)
	if err := WriteSnapshot(dir, 20, pieces{b: big, n: 1000, fail: true}); err == nil {
		t.Fatal("WriteSnapshot of a failing image returned nil")
	}
	seq, state, found, err := LatestSnapshot(dir)
	if err != nil || !found || seq != 10 || string(state) != "state-ten" {
		t.Fatalf("latest after a failed image = (%d, %q, %v, %v), want (10, state-ten)", seq, state, found, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != snapshotName(10) {
			t.Fatalf("directory holds %s after a failed image, want only %s", e.Name(), snapshotName(10))
		}
	}
	// The writer the failure used carries nothing into the next snapshot.
	if err := WriteSnapshot(dir, 30, bytes.NewReader([]byte("state-thirty"))); err != nil {
		t.Fatal(err)
	}
	if seq, state, _, _ := LatestSnapshot(dir); seq != 30 || string(state) != "state-thirty" {
		t.Fatalf("latest after a good image = (%d, %q), want (30, state-thirty)", seq, state)
	}
}

// Checkpoints reuse their write buffer: a fresh one per call would cost
// snapBufSize bytes each.
func TestSnapshotReusesWriteBuffer(t *testing.T) {
	dir := t.TempDir()
	state := []byte("state")
	WriteSnapshot(dir, 1, bytes.NewReader(state)) // warms the idle writer
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for seq := uint64(2); seq < 2+calls; seq++ {
		if err := WriteSnapshot(dir, seq, bytes.NewReader(state)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= snapBufSize/4 {
		t.Fatalf("WriteSnapshot allocates %d B per call, want under %d", per, snapBufSize/4)
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{"sync": SyncEach, "": SyncEach, "batch": SyncBatch, "none": SyncNone} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy must reject unknown policies")
	}
	if SyncEach.String() != "sync" || SyncBatch.String() != "batch" || SyncNone.String() != "none" {
		t.Fatal("SyncPolicy.String mismatch")
	}
}
