package wal

import (
	"errors"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

var errDisk = errors.New("injected: input/output error")

// faultyDisk is an fsync seam that fails while failing is set.
type faultyDisk struct{ failing atomic.Bool }

func (d *faultyDisk) fsync(f *os.File) error {
	if d.failing.Load() {
		return errDisk
	}
	return f.Sync()
}

// wantFailed checks that err is the log's sticky failure carrying the
// injected cause.
func wantFailed(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, ErrFailed) || !errors.Is(err, errDisk) {
		t.Fatalf("%s: err = %v, want ErrFailed wrapping the injected error", what, err)
	}
}

// A failed fsync fails the log for good: the records it was to cover
// never become durable, WaitDurable reports the failure for every seq past
// Durable(), later appends are refused, and a disk that recovers does not
// revive the log.
func TestFailedFsyncIsSticky(t *testing.T) {
	disk := &faultyDisk{}
	l, err := Open(t.TempDir(), Options{Policy: SyncEach, fsync: disk.fsync})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, "ok")
	if l.Durable() != 3 {
		t.Fatalf("Durable = %d after three synced appends, want 3", l.Durable())
	}

	disk.failing.Store(true)
	seq, err := l.AppendAsync([]byte("lost"))
	if err != nil || seq != 4 {
		t.Fatalf("append before the fsync: seq=%d err=%v, want 4", seq, err)
	}
	wantFailed(t, "WaitDurable(4)", l.WaitDurable(4))
	if l.Durable() != 3 {
		t.Fatalf("Durable = %d after a failed fsync, want it held at 3", l.Durable())
	}
	if err := l.WaitDurable(3); err != nil {
		t.Fatalf("WaitDurable(3) of a record synced before the failure: %v", err)
	}
	if _, err := l.AppendAsync([]byte("refused")); err == nil {
		t.Fatal("AppendAsync after a failed fsync succeeded")
	} else {
		wantFailed(t, "AppendAsync after the failure", err)
	}
	if _, err := l.Append([]byte("refused")); err == nil {
		t.Fatal("Append after a failed fsync succeeded")
	}

	disk.failing.Store(false)
	wantFailed(t, "WaitDurable(4) once the disk answers again", l.WaitDurable(4))
	if _, err := l.AppendAsync([]byte("still refused")); err == nil {
		t.Fatal("the log revived when the disk did")
	}
	wantFailed(t, "Close of a failed log", l.Close())
	if l.Durable() != 3 {
		t.Fatalf("Durable = %d after Close, want 3: Close must not sync past the failure", l.Durable())
	}
}

// Under SyncBatch the flusher's fsync failure is sticky too: appends stop
// being accepted once the flusher has met it.
func TestFailedBatchFlushIsSticky(t *testing.T) {
	disk := &faultyDisk{}
	l, err := Open(t.TempDir(), Options{Policy: SyncBatch, BatchInterval: time.Millisecond, fsync: disk.fsync})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	disk.failing.Store(true)
	if _, err := l.Append([]byte("unsynced")); err != nil {
		t.Fatalf("batch append before the flush: %v", err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		_, err := l.AppendAsync([]byte("more"))
		if err != nil {
			wantFailed(t, "append after the failed flush", err)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("appends still accepted 5 s after the flusher's fsync began failing")
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.WaitDurable(l.LastSeq() + 1); err == nil {
		t.Fatal("WaitDurable past the last append of a failed log returned nil")
	}
}

// A failed sealing fsync fails the log like a commit's does.
func TestFailedRotationIsSticky(t *testing.T) {
	disk := &faultyDisk{}
	l, err := Open(t.TempDir(), Options{Policy: SyncNone, SegmentSize: 64, fsync: disk.fsync})
	if err != nil {
		t.Fatal(err)
	}
	disk.failing.Store(true)
	var appendErr error
	for i := 0; i < 10 && appendErr == nil; i++ {
		_, appendErr = l.Append([]byte("rotate-me-rotate-me"))
	}
	wantFailed(t, "the append that sealed a segment", appendErr)
	if _, err := l.AppendAsync([]byte("after")); err == nil {
		t.Fatal("append after a failed rotation succeeded")
	}
	if l.Segments() != 1 {
		t.Fatalf("%d segments after a failed seal, want the one active segment", l.Segments())
	}
	l.Close()
}

// Durable is the watermark acks wait on. Under SyncEach it moves when a
// commit lands, not when the record is written; under SyncBatch and
// SyncNone it moves at append time; a seal moves it under every policy.
func TestDurableWatermark(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	slow := func(f *os.File) error {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		return f.Sync()
	}
	l, err := Open(t.TempDir(), Options{Policy: SyncEach, fsync: slow})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := l.AppendAsync([]byte("one"))
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	if l.Durable() != 0 {
		t.Fatalf("Durable = %d while the commit's fsync is in flight, want 0", l.Durable())
	}
	// Records written during the fsync wait for the next commit.
	seq2, _ := l.AppendAsync([]byte("two"))
	waited := make(chan error, 1)
	go func() { waited <- l.WaitDurable(seq2) }()
	close(release)
	if err := <-waited; err != nil {
		t.Fatalf("WaitDurable(%d): %v", seq2, err)
	}
	if l.Durable() < seq2 || l.WaitDurable(seq) != nil {
		t.Fatalf("Durable = %d after both commits, want ≥ %d", l.Durable(), seq2)
	}
	if err := l.WaitDurable(seq2 + 1); err == nil {
		t.Fatal("WaitDurable past the last append returned nil instead of refusing")
	}
	l.Close()

	for _, p := range []SyncPolicy{SyncBatch, SyncNone} {
		l, err := Open(t.TempDir(), Options{Policy: p, BatchInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if seq, _ := l.AppendAsync([]byte("x")); l.Durable() != seq {
			t.Fatalf("%v: Durable = %d right after appending %d, want equal", p, l.Durable(), seq)
		}
		l.Close()
	}

	// An append that seals its segment kicks no committer: only the seal
	// can have made it durable.
	l, err = Open(t.TempDir(), Options{Policy: SyncEach, SegmentSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if seq, err := l.AppendAsync([]byte("fills the segment")); err != nil || l.Durable() != seq {
		t.Fatalf("sealing append: seq=%d err=%v Durable=%d, want the seal to make it durable", seq, err, l.Durable())
	}
}

// The SyncBatch flusher fsyncs outside the log mutex, as the committer
// does: an append issued while the flusher's fsync is in flight does not
// wait for the disk.
func TestBatchFlushDoesNotBlockAppends(t *testing.T) {
	inSync := make(chan struct{}, 1)
	slow := func(f *os.File) error {
		select {
		case inSync <- struct{}{}:
		default:
		}
		time.Sleep(50 * time.Millisecond)
		return f.Sync()
	}
	l, err := Open(t.TempDir(), Options{Policy: SyncBatch, BatchInterval: time.Millisecond, fsync: slow})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]byte("dirty")); err != nil {
		t.Fatal(err)
	}
	<-inSync
	start := time.Now()
	if _, err := l.Append([]byte("during the fsync")); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 10*time.Millisecond {
		t.Fatalf("Append during a 50 ms batch fsync took %v, want < 10 ms", took)
	}
}

// A SyncEach append, and the wait for its commit, allocate nothing: the
// watermark replaced the channel each waiter used to get.
func TestAppendAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector moves the record header to the heap")
	}
	l, err := Open(t.TempDir(), Options{Policy: SyncEach})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := []byte("a record of ordinary size")
	if n := testing.AllocsPerRun(100, func() {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Append under SyncEach: %v allocs per record, want 0", n)
	}
}
