// Package wal is the durable-persistence subsystem under the cluster
// runtime: a segmented append-only write-ahead log with per-record
// CRC32C and configurable fsync batching, and checkpoint snapshots
// written atomically beside it. Records and snapshot images are opaque
// bytes here; each protocol package owns its layouts.
//
// The paper's definition of eventual consistency presumes eventual
// delivery of every update, which a node that forgets acknowledged
// writes on crash cannot provide. The WAL closes that gap: a protocol
// node journals every state mutation before acknowledging it, and a
// restarted process replays snapshot + log to rejoin the ring holding
// everything it ever acked, so anti-entropy reconciles only the delta
// it missed while down.
//
// Recovery is prefix-exact: replay stops at the first torn or corrupt
// record (a crash mid-write tears the tail; CRC32C catches bit rot),
// truncates it away, and never resurrects anything past it.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SyncPolicy says when appended records reach stable storage.
type SyncPolicy int

const (
	// SyncEach fsyncs before Append returns: an acknowledged record is
	// on disk. The policy the zero-lost-writes guarantee needs.
	// Concurrent appenders group-commit: their records are written under
	// the log mutex, then a single committer fsync covers every record
	// written since the previous fsync and wakes all of their Append
	// calls at once — N concurrent acked writes cost one fsync, not N.
	SyncEach SyncPolicy = iota
	// SyncBatch fsyncs at most every Options.BatchInterval from a
	// background flusher — group commit: a crash loses at most one
	// interval of acknowledged records.
	SyncBatch
	// SyncNone never fsyncs explicitly; the OS decides. A crash loses
	// whatever the page cache held.
	SyncNone
)

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncEach:
		return "sync"
	case SyncBatch:
		return "batch"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParsePolicy maps the flag spellings ("sync", "batch", "none") to a
// policy.
func ParsePolicy(s string) (SyncPolicy, error) {
	switch s {
	case "sync", "":
		return SyncEach, nil
	case "batch":
		return SyncBatch, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want sync, batch, or none)", s)
}

// Options shapes a Log.
type Options struct {
	// SegmentSize is the rotation threshold: a segment that grows past
	// it is sealed and a new one opened (default 8 MiB). Checkpoints
	// delete sealed segments wholesale, so smaller segments reclaim
	// disk sooner at the cost of more files.
	SegmentSize int64
	// Policy is the fsync discipline (default SyncEach).
	Policy SyncPolicy
	// BatchInterval paces the SyncBatch flusher (default 2ms).
	BatchInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 8 << 20
	}
	if o.BatchInterval <= 0 {
		o.BatchInterval = 2 * time.Millisecond
	}
	return o
}

const (
	// recHeader is the per-record framing: uint32 little-endian payload
	// length, then CRC32C of the payload.
	recHeader = 8
	// MaxRecord caps one record's payload, defending the length prefix
	// against corruption-as-giant-allocation.
	MaxRecord = 16 << 20

	segSuffix = ".wal"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segment is one sealed (read-only) log file.
type segment struct {
	base uint64 // sequence number of its first record
	path string
	size int64
	last uint64 // sequence number of its final record (base-1 if empty)
}

// Stats counts log activity since Open.
type Stats struct {
	Appends uint64
	Syncs   uint64
	// GroupCommits counts committer fsyncs that acknowledged waiting
	// Append calls (SyncEach only); GroupedAppends counts the appends
	// they covered. GroupedAppends/GroupCommits is the mean group size
	// (exported as ec_wal_group_commit_size).
	GroupCommits   uint64
	GroupedAppends uint64
}

// Log is a segmented append-only record log. Append/Sync/TruncateThrough
// are safe for concurrent use; Replay is meant for the recovery phase
// before appends begin but tolerates concurrency.
type Log struct {
	dir string
	opt Options

	mu     sync.Mutex
	f      *os.File  // active segment
	base   uint64    // first seq of the active segment
	size   int64     // bytes in the active segment
	seq    uint64    // last appended (or recovered) sequence number
	sealed []segment // sealed segments, ascending by base
	dirty  bool      // unsynced bytes pending
	closed bool
	stats  Stats
	// rotations counts segment rotations; the committer uses it to
	// recognize that the file handle it synced outside the lock was
	// sealed (durably, by rotateLocked) while the fsync was in flight.
	rotations uint64

	// waiters are Append calls blocked on the next committer fsync
	// (SyncEach group commit). Each receives exactly one error.
	waiters []chan error

	stopFlush chan struct{}
	doneFlush chan struct{}

	commitKick chan struct{} // buffered(1): wakes the committer
	stopCommit chan struct{}
	doneCommit chan struct{}
}

// Open opens (creating if needed) the log in dir, scans every segment
// verifying record CRCs, truncates the torn tail at the first corrupt
// record, and discards any segments past it. The returned log is
// positioned to append after the last intact record.
func Open(dir string, opt Options) (*Log, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	names, err := segmentFiles(dir)
	if err != nil {
		return nil, err
	}

	l := &Log{dir: dir, opt: opt}
	for i, s := range names {
		n, off, intact, err := scanSegment(s.path, s.base)
		if err != nil {
			return nil, err
		}
		s.last = s.base + n - 1
		s.size = off
		if !intact {
			// First corruption: cut the tail here and drop everything
			// after it — recovery must never resurrect a record past
			// the first corrupt one.
			if err := os.Truncate(s.path, off); err != nil {
				return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", s.path, err)
			}
			for _, later := range names[i+1:] {
				if err := os.Remove(later.path); err != nil {
					return nil, fmt.Errorf("wal: drop post-corruption segment: %w", err)
				}
			}
			l.sealed = append(l.sealed, s)
			l.seq = s.last
			break
		}
		l.sealed = append(l.sealed, s)
		l.seq = s.last
	}

	// The last surviving segment becomes the active one; an empty dir
	// starts a first segment at seq 1.
	if n := len(l.sealed); n > 0 {
		act := l.sealed[n-1]
		l.sealed = l.sealed[:n-1]
		f, err := os.OpenFile(act.path, os.O_WRONLY, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if _, err := f.Seek(act.size, io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f, l.base, l.size = f, act.base, act.size
	} else {
		if err := l.openSegmentLocked(1); err != nil {
			return nil, err
		}
	}

	switch opt.Policy {
	case SyncBatch:
		l.stopFlush = make(chan struct{})
		l.doneFlush = make(chan struct{})
		go l.flushLoop()
	case SyncEach:
		l.commitKick = make(chan struct{}, 1)
		l.stopCommit = make(chan struct{})
		l.doneCommit = make(chan struct{})
		go l.commitLoop()
	}
	return l, nil
}

// segmentFiles lists dir's segments ascending by base sequence.
func segmentFiles(dir string) ([]segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segment
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		base, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 16, 64)
		if err != nil || base == 0 {
			continue // not ours
		}
		segs = append(segs, segment{base: base, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	return segs, nil
}

func segmentName(base uint64) string { return fmt.Sprintf("%016x%s", base, segSuffix) }

// scanSegment counts the intact records of one segment file. It returns
// the record count, the byte offset just past the last intact record,
// and whether the whole file was intact (false means a torn or corrupt
// record starts at the returned offset).
func scanSegment(path string, base uint64) (n uint64, off int64, intact bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("wal: %w", err)
	}
	for {
		rec, next, ok := nextRecord(data, off)
		if !ok {
			return n, off, off == int64(len(data)), nil
		}
		_ = rec
		off = next
		n++
	}
}

// nextRecord parses the record starting at off. ok is false when the
// bytes there are a torn tail, a corrupt record, or the end of data.
func nextRecord(data []byte, off int64) (rec []byte, next int64, ok bool) {
	if int64(len(data))-off < recHeader {
		return nil, off, false
	}
	h := data[off : off+recHeader]
	length := int64(binary.LittleEndian.Uint32(h[0:4]))
	crc := binary.LittleEndian.Uint32(h[4:8])
	if length == 0 || length > MaxRecord || off+recHeader+length > int64(len(data)) {
		return nil, off, false
	}
	rec = data[off+recHeader : off+recHeader+length]
	if crc32.Checksum(rec, castagnoli) != crc {
		return nil, off, false
	}
	return rec, off + recHeader + length, true
}

// openSegmentLocked creates and activates a fresh segment whose first
// record will be sequence base.
func (l *Log) openSegmentLocked(base uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(base)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f, l.base, l.size = f, base, 0
	return nil
}

// Append journals one record and returns its sequence number. Under
// SyncEach the record is on stable storage when Append returns — but
// the fsync that makes it so is shared: the record is written under the
// log mutex, Append joins the waiter list, and the committer's next
// fsync (which covers every record written while the previous fsync
// was in flight) wakes the whole group. Concurrency is what creates
// batching — a lone appender still pays one fsync per record.
func (l *Log) Append(rec []byte) (uint64, error) {
	seq, done, err := l.AppendAsync(rec)
	if err != nil {
		return 0, err
	}
	if done != nil {
		if err := <-done; err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// AppendAsync journals rec and returns without waiting for durability.
// done is nil when the record is already as durable as the policy
// promises (non-SyncEach policies; or the append triggered a rotation,
// whose sealing fsync covered it). Otherwise exactly one error arrives
// on done when a committer fsync covers the record; nil means durable.
// A single-threaded caller that appends again before reading done is
// what forms commit groups: the records pile up behind one in-flight
// fsync and the next commit covers them all.
func (l *Log) AppendAsync(rec []byte) (seq uint64, done <-chan error, err error) {
	if len(rec) == 0 || len(rec) > MaxRecord {
		return 0, nil, fmt.Errorf("wal: record size %d out of range (0, %d]", len(rec), MaxRecord)
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, nil, fmt.Errorf("wal: log closed")
	}
	var h [recHeader]byte
	binary.LittleEndian.PutUint32(h[0:4], uint32(len(rec)))
	binary.LittleEndian.PutUint32(h[4:8], crc32.Checksum(rec, castagnoli))
	if _, err := l.f.Write(h[:]); err != nil {
		l.mu.Unlock()
		return 0, nil, fmt.Errorf("wal: %w", err)
	}
	if _, err := l.f.Write(rec); err != nil {
		l.mu.Unlock()
		return 0, nil, fmt.Errorf("wal: %w", err)
	}
	l.seq++
	l.size += recHeader + int64(len(rec))
	l.stats.Appends++
	l.dirty = true
	seq = l.seq
	if l.size >= l.opt.SegmentSize {
		// Sealing fsyncs the segment, so the record is already durable
		// under every policy; no need to join a commit group.
		err := l.rotateLocked()
		l.mu.Unlock()
		if err != nil {
			return 0, nil, err
		}
		return seq, nil, nil
	}
	if l.opt.Policy != SyncEach {
		l.mu.Unlock()
		return seq, nil, nil
	}
	ch := make(chan error, 1)
	l.waiters = append(l.waiters, ch)
	l.mu.Unlock()
	select {
	case l.commitKick <- struct{}{}:
	default: // a kick is already pending; the committer will see us
	}
	return seq, ch, nil
}

// commitLoop is the SyncEach group committer: on each kick it takes the
// current waiter list, issues one fsync covering all of their records,
// and completes every Append in the group. Appenders that arrive while
// the fsync is in flight queue behind the mutex and form the next
// group.
func (l *Log) commitLoop() {
	defer close(l.doneCommit)
	for {
		select {
		case <-l.stopCommit:
			l.commitOnce()
			return
		case <-l.commitKick:
			l.commitOnce()
		}
	}
}

// commitOnce syncs on behalf of the currently queued waiters (if any)
// and wakes them. The fsync runs outside the log mutex — that is what
// makes groups: while the disk is busy, appenders keep acquiring the
// mutex, writing records, and queueing as the next group, so the group
// size tracks the arrival rate during one fsync instead of the few
// appends that squeeze between two mutex holds.
func (l *Log) commitOnce() {
	l.mu.Lock()
	ws := l.waiters
	l.waiters = nil
	f := l.f
	rot := l.rotations
	l.mu.Unlock()
	if len(ws) == 0 {
		return
	}
	err := f.Sync()
	if err != nil {
		err = fmt.Errorf("wal: fsync: %w", err)
	}
	l.mu.Lock()
	if err != nil && rot != l.rotations {
		// The segment sealed mid-commit: rotateLocked fsynced it before
		// closing the handle we were holding, so the group's records are
		// durable and the stale-handle error is moot.
		err = nil
	}
	if err == nil {
		l.stats.Syncs++
		l.stats.GroupCommits++
		l.stats.GroupedAppends += uint64(len(ws))
	}
	l.mu.Unlock()
	for _, ch := range ws {
		ch <- err
	}
}

// rotateLocked seals the active segment and opens the next one.
func (l *Log) rotateLocked() error {
	// Seal durably: a sealed segment is never written again, and
	// checkpoint truncation assumes its contents are settled.
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync on rotate: %w", err)
	}
	l.stats.Syncs++
	l.dirty = false
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.sealed = append(l.sealed, segment{
		base: l.base,
		path: filepath.Join(l.dir, segmentName(l.base)),
		size: l.size,
		last: l.seq,
	})
	l.rotations++
	return l.openSegmentLocked(l.seq + 1)
}

// Sync forces buffered records to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

// syncLocked fsyncs pending bytes. It deliberately does not check
// closed: Close sets closed before stopping the flusher and committer,
// and both must still be able to issue the final fsync — the file
// handle stays open until they have drained.
func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.dirty = false
	l.stats.Syncs++
	return nil
}

func (l *Log) flushLoop() {
	defer close(l.doneFlush)
	t := time.NewTicker(l.opt.BatchInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stopFlush:
			return
		case <-t.C:
			l.mu.Lock()
			l.syncLocked()
			l.mu.Unlock()
		}
	}
}

// Replay re-reads the log from disk and calls fn for every record with
// sequence number >= from, in order. fn returning an error stops the
// replay and returns that error.
func (l *Log) Replay(from uint64, fn func(seq uint64, rec []byte) error) error {
	l.mu.Lock()
	segs := append([]segment(nil), l.sealed...)
	segs = append(segs, segment{base: l.base, path: l.f.Name(), size: l.size, last: l.seq})
	l.mu.Unlock()
	for _, s := range segs {
		if s.last < from {
			continue
		}
		data, err := os.ReadFile(s.path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		seq, off := s.base-1, int64(0)
		for {
			rec, next, ok := nextRecord(data, off)
			if !ok {
				break
			}
			seq++
			off = next
			if seq >= from {
				if err := fn(seq, rec); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// LastSeq returns the sequence number of the most recent record (0 when
// the log is empty).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// TruncateThrough deletes sealed segments all of whose records have
// sequence numbers <= seq — the reclamation a checkpoint at seq
// licenses. The active segment is never deleted.
func (l *Log) TruncateThrough(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := l.sealed[:0]
	for _, s := range l.sealed {
		if s.last <= seq {
			if err := os.Remove(s.path); err != nil {
				l.sealed = append(kept, l.sealed[len(kept):]...)
				return fmt.Errorf("wal: %w", err)
			}
			continue
		}
		kept = append(kept, s)
	}
	l.sealed = kept
	return nil
}

// DiskBytes returns the log's current on-disk footprint.
func (l *Log) DiskBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.size
	for _, s := range l.sealed {
		n += s.size
	}
	return n
}

// Segments returns how many files the log currently spans (sealed plus
// active), for tests and metrics.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sealed) + 1
}

// Stats returns a snapshot of append/fsync counts.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Close syncs and closes the log. Idempotent. Ordering matters: closed
// is set first (no new appends), then the flusher and committer drain —
// the committer's final pass syncs and wakes any in-flight group — and
// only then is the final sync issued and the file handle closed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	if l.stopFlush != nil {
		close(l.stopFlush)
		<-l.doneFlush
	}
	if l.stopCommit != nil {
		close(l.stopCommit)
		<-l.doneCommit
	}
	l.mu.Lock()
	err := l.syncLocked()
	cerr := l.f.Close()
	ws := l.waiters // the committer drained; belt and suspenders
	l.waiters = nil
	l.mu.Unlock()
	for _, ch := range ws {
		ch <- err
	}
	if err != nil {
		return err
	}
	if cerr != nil {
		return fmt.Errorf("wal: %w", cerr)
	}
	return nil
}
