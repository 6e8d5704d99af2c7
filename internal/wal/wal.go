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
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrFailed wraps the first write or fsync error a log meets. The
// failure is sticky: from then on every AppendAsync and every wait past
// Durable returns it, because after a failed fsync the kernel may report
// the next one clean over pages that never reached the disk.
var ErrFailed = errors.New("wal: log failed")

// SyncPolicy says when appended records reach stable storage.
type SyncPolicy int

const (
	// SyncEach fsyncs before Append returns: an acknowledged record is
	// on disk. The policy the zero-lost-writes guarantee needs.
	// Concurrent appenders group-commit: their records are written under
	// the log mutex, then a single committer fsync covers every record
	// written since the previous fsync and advances the durable sequence
	// number past all of them at once — N concurrent acked writes cost
	// one fsync, not N.
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

	// fsync makes a segment's written bytes durable (default
	// (*os.File).Sync); the package's tests slow it down or fail it.
	fsync func(*os.File) error
}

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 8 << 20
	}
	if o.BatchInterval <= 0 {
		o.BatchInterval = 2 * time.Millisecond
	}
	if o.fsync == nil {
		o.fsync = (*os.File).Sync
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
	// GroupCommits counts the fsyncs that advanced the durable sequence
	// number (SyncEach only); GroupedAppends counts the records they made
	// durable. GroupedAppends/GroupCommits is the mean group size
	// (exported as ec_wal_group_commit_size).
	GroupCommits   uint64
	GroupedAppends uint64
}

// Log is a segmented append-only record log. Appends, waits, syncs and
// TruncateThrough are safe for concurrent use; Replay is meant for the
// recovery phase before appends begin but tolerates concurrency.
type Log struct {
	dir string
	opt Options

	mu     sync.Mutex
	f      *os.File  // active segment
	base   uint64    // first seq of the active segment
	size   int64     // bytes in the active segment
	seq    uint64    // last appended (or recovered) sequence number
	synced uint64    // highest seq an fsync has covered (or recovery found)
	sealed []segment // sealed segments, ascending by base
	closed bool
	err    error // the sticky failure (see ErrFailed); nil while healthy
	stats  Stats
	// rotations counts segment rotations; a sync uses it to recognize
	// that the file handle it fsynced outside the lock was sealed
	// (durably, by rotateLocked) while the fsync was in flight.
	rotations uint64

	// durable is the highest seq on stable storage as far as the policy
	// promises: the last commit's under SyncEach, the last append's under
	// SyncBatch and SyncNone, and a sealed segment's last record under
	// every policy. It only grows, and never past a failure. Written
	// under mu; Durable reads it without the lock.
	durable atomic.Uint64
	// durableCond (on mu) wakes WaitDurable callers when durable advances
	// or the log fails: one broadcast per commit, whatever the number of
	// waiters.
	durableCond sync.Cond

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
	l.durableCond.L = &l.mu
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
			return nil, fmt.Errorf("wal: %w", err)
		}
	}
	// What recovery found is as durable as it will get.
	l.synced = l.seq
	l.durable.Store(l.seq)

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
		return err
	}
	l.f, l.base, l.size = f, base, 0
	return nil
}

// Append journals one record and returns its sequence number once the
// record is as durable as the policy promises: AppendAsync, then
// WaitDurable. Under SyncEach the fsync that makes it so is shared with
// every record written while the previous fsync was in flight.
// Concurrency is what creates batching — a lone appender still pays one
// fsync per record.
func (l *Log) Append(rec []byte) (uint64, error) {
	seq, err := l.AppendAsync(rec)
	if err != nil {
		return 0, err
	}
	if err := l.WaitDurable(seq); err != nil {
		return 0, err
	}
	return seq, nil
}

// AppendAsync journals rec and returns its sequence number without
// waiting for it to reach disk. The record is durable once Durable()
// reaches seq, and WaitDurable(seq) blocks until then. Under SyncEach the
// append kicks the group committer; a caller that appends again before
// waiting is what forms commit groups, since the records pile up behind
// one in-flight fsync and the next commit covers them all. Under
// SyncBatch and SyncNone, and for an append that seals its segment, the
// record counts as durable on return. Once the log has failed, every
// append is refused with the sticky error.
func (l *Log) AppendAsync(rec []byte) (uint64, error) {
	if len(rec) == 0 || len(rec) > MaxRecord {
		return 0, fmt.Errorf("wal: record size %d out of range (0, %d]", len(rec), MaxRecord)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: log closed")
	}
	if l.err != nil {
		return 0, l.err
	}
	var h [recHeader]byte
	binary.LittleEndian.PutUint32(h[0:4], uint32(len(rec)))
	binary.LittleEndian.PutUint32(h[4:8], crc32.Checksum(rec, castagnoli))
	if _, err := l.f.Write(h[:]); err != nil {
		return 0, l.failLocked(err)
	}
	if _, err := l.f.Write(rec); err != nil {
		return 0, l.failLocked(err)
	}
	l.seq++
	l.size += recHeader + int64(len(rec))
	l.stats.Appends++
	seq := l.seq
	switch {
	case l.size >= l.opt.SegmentSize:
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	case l.opt.Policy != SyncEach:
		l.advanceLocked(seq)
	default:
		select {
		case l.commitKick <- struct{}{}:
		default: // a kick is already pending; the committer will see us
		}
	}
	return seq, nil
}

// Durable returns the highest sequence number that is on stable storage
// as far as the policy promises (see AppendAsync). It never blocks.
func (l *Log) Durable() uint64 { return l.durable.Load() }

// WaitDurable blocks until record seq is durable or the log has failed,
// and returns nil in the first case and the sticky failure in the
// second. Waiters park on one condition variable that each commit
// broadcasts, so a wait allocates nothing.
func (l *Log) WaitDurable(seq uint64) error {
	if seq <= l.durable.Load() {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for seq > l.durable.Load() {
		if l.err != nil {
			return l.err
		}
		if seq > l.seq {
			return fmt.Errorf("wal: wait for seq %d, past the last append %d", seq, l.seq)
		}
		l.durableCond.Wait()
	}
	return nil
}

// advanceLocked moves durable up to seq and wakes the waiters, unless
// the log has failed.
func (l *Log) advanceLocked(seq uint64) {
	if l.err == nil && seq > l.durable.Load() {
		l.durable.Store(seq)
		l.durableCond.Broadcast()
	}
}

// failLocked makes err the log's sticky failure, unless an earlier one
// already is, and returns the failure. durable stays where it is.
func (l *Log) failLocked(err error) error {
	if l.err == nil {
		l.err = fmt.Errorf("%w: %w", ErrFailed, err)
		l.durableCond.Broadcast()
	}
	return l.err
}

// commitLoop is the SyncEach group committer: each kick syncs every
// record appended so far. Appenders that arrive while the fsync is in
// flight write under the mutex, kick again, and form the next group.
func (l *Log) commitLoop() {
	defer close(l.doneCommit)
	for {
		select {
		case <-l.stopCommit:
			return // Close syncs what is left
		case <-l.commitKick:
			l.sync()
		}
	}
}

// flushLoop is the SyncBatch flusher.
func (l *Log) flushLoop() {
	defer close(l.doneFlush)
	t := time.NewTicker(l.opt.BatchInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stopFlush:
			return
		case <-t.C:
			l.sync()
		}
	}
}

// sync is the log's one fsync path, shared by the committer, the batch
// flusher and Close. It takes the target seq and the file handle under
// the mutex and fsyncs outside it: while the disk is busy, appenders
// keep acquiring the mutex and writing records, so a commit group is
// what arrives during one fsync, not the few appends that squeeze
// between two mutex holds. It then advances durable to the target.
func (l *Log) sync() error {
	l.mu.Lock()
	target, f, rot := l.seq, l.f, l.rotations
	if l.err != nil || target <= l.synced {
		err := l.err
		l.mu.Unlock()
		return err
	}
	l.mu.Unlock()
	err := l.opt.fsync(f)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil && rot == l.rotations {
		return l.failLocked(fmt.Errorf("fsync: %w", err))
	}
	// Either the fsync covered target, or the segment sealed mid-sync:
	// rotateLocked fsynced it before closing the handle held here, so
	// the stale handle's error is moot.
	if l.err != nil {
		return l.err
	}
	l.stats.Syncs++
	l.synced = max(l.synced, target)
	if prev := l.durable.Load(); target > prev {
		l.stats.GroupCommits++
		l.stats.GroupedAppends += target - prev
		l.advanceLocked(target)
	}
	return nil
}

// rotateLocked seals the active segment and opens the next one.
func (l *Log) rotateLocked() error {
	// Seal durably: a sealed segment is never written again, and
	// checkpoint truncation assumes its contents are settled. The seal
	// covers every record so far, under every policy.
	if err := l.opt.fsync(l.f); err != nil {
		return l.failLocked(fmt.Errorf("fsync on rotate: %w", err))
	}
	l.stats.Syncs++
	l.synced = l.seq
	l.advanceLocked(l.seq)
	if err := l.f.Close(); err != nil {
		return l.failLocked(err)
	}
	l.sealed = append(l.sealed, segment{
		base: l.base,
		path: filepath.Join(l.dir, segmentName(l.base)),
		size: l.size,
		last: l.seq,
	})
	l.rotations++
	if err := l.openSegmentLocked(l.seq + 1); err != nil {
		return l.failLocked(err)
	}
	return nil
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

// Close syncs and closes the log, and returns the sticky failure if the
// log has one. Idempotent. Ordering matters: closed is set first (no new
// appends), then the flusher and committer stop, and only then does the
// final sync make every appended record durable — waking any waiter the
// committer left — before the file handle closes.
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
	err := l.sync()
	l.mu.Lock()
	cerr := l.f.Close()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if cerr != nil {
		return fmt.Errorf("wal: %w", cerr)
	}
	return nil
}
