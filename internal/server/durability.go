package server

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/wal"
)

// durableNode is what a protocol node must provide to be crash-safe:
// restore a checkpoint, replay journaled records past it, and capture its
// state for the next checkpoint. Checkpoint runs on the node's actor
// loop; the image it returns is written to disk off the loop.
// gossip.Node, quorum.Node, and session.Server all implement it.
type durableNode interface {
	RestoreState(state []byte) error
	ReplayRecord(rec []byte) error
	Checkpoint() io.WriterTo
}

// journal is the part of *wal.Log the ack path uses: append without
// waiting, read the durable watermark, wait for it. Tests put a journal
// whose disk fails behind durability.
type journal interface {
	AppendAsync(rec []byte) (uint64, error)
	Durable() uint64
	WaitDurable(seq uint64) error
}

// neverDurable is the pending seq of an invocation one of whose appends
// failed: no commit reaches it, so the acks it gates never leave.
const neverDurable = math.MaxUint64

// durability owns a node's WAL: it journals the protocol's Persist
// callbacks, recovers state at boot, and runs the background
// checkpointer that bounds log growth.
type durability struct {
	log  *wal.Log
	j    journal // log, or a test's failing stand-in
	dir  string
	logf func(format string, args ...any)

	mu         sync.Mutex
	ckptSeq    uint64
	replayed   uint64
	failures   uint64
	recovering bool

	// pending holds, per execution domain, the highest WAL seq appended
	// since that domain's last takePending: 0 if none, neverDurable if an
	// append failed. It is indexed by transport.Env.Domain: 0 is the
	// serial actor loop, 1+k shard k of a sharded node. Each entry is
	// confined to its domain's goroutine (persistAt and takePending both
	// run there), so none needs a lock.
	pending []uint64

	// laneReplayed counts the records recovery replayed on each WAL
	// replay lane. Lanes are execution domains: lane 0 holds the serial
	// records, 1+k shard k's. Written before the actors start, read-only
	// after.
	laneReplayed []uint64

	stop chan struct{}
	done chan struct{}
}

func openDurability(dir string, policy wal.SyncPolicy, logf func(string, ...any)) (*durability, error) {
	log, err := wal.Open(dir, wal.Options{Policy: policy})
	if err != nil {
		return nil, err
	}
	return &durability{log: log, j: log, dir: dir, logf: logf, pending: make([]uint64, 1)}, nil
}

// setDomains sizes the per-domain pending table for a node with n
// execution domains (1 serial domain + the node's shard count). Must run
// before the node's actors start.
func (d *durability) setDomains(n int) {
	d.pending = make([]uint64, n)
}

// persist journals one protocol record. It is the Persist hook handed
// to the protocol config, and it runs on the node's actor loop — but
// it does NOT wait for the fsync. The record's seq lands in pending;
// the ack barrier (ackBarrier) holds the handler's outgoing acks, and
// its answers to clients, until the WAL's durable watermark reaches it,
// and drops them if it never does. Durable-before-ack holds,
// yet the actor loop keeps processing during the disk wait — which is
// exactly what lets the WAL committer group many appends under one
// fsync. During recovery replay persist is a no-op (replay must not
// re-journal).
func (d *durability) persist(rec []byte) {
	d.persistAt(0, rec)
}

// persistAt is persist for one execution domain of a sharded node: the
// seq lands in that domain's pending entry, so each domain's ack barrier
// gates only its own invocations' acks on its own appends. A failed
// append marks the invocation never durable. Must run on the domain's
// executor goroutine.
func (d *durability) persistAt(domain int, rec []byte) {
	if d.recovering {
		return
	}
	seq, err := d.j.AppendAsync(rec)
	if err != nil {
		d.fail(err)
		seq = neverDurable
	}
	d.pending[domain] = max(d.pending[domain], seq)
}

// takePending returns and clears the highest seq persistAt appended for
// one domain since the last take (0 if none). Must run on the domain's
// executor goroutine, right after the handler invocation whose acks it
// gates.
func (d *durability) takePending(domain int) uint64 {
	seq := d.pending[domain]
	d.pending[domain] = 0
	return seq
}

// journaled reports whether the domain appended a record since its last
// takePending: within a handler invocation, whether the invocation has
// journaled anything yet. Must run on the domain's executor goroutine.
func (d *durability) journaled(domain int) bool {
	return d.pending[domain] != 0
}

// durable reports, without blocking, whether record seq is on disk.
func (d *durability) durable(seq uint64) bool {
	return seq <= d.j.Durable()
}

// await blocks until record seq is on disk and reports whether it got
// there. A record whose append or fsync failed never does: the caller
// drops the acks it gates, and nothing is acked that the disk may not
// hold.
func (d *durability) await(seq uint64) bool {
	if seq == neverDurable {
		return false // persistAt counted the failure
	}
	if err := d.j.WaitDurable(seq); err != nil {
		d.fail(err)
		return false
	}
	return true
}

// fail counts one append or wait whose acks are dropped. A log failure
// is sticky and fails everything after it, so only the first is logged.
func (d *durability) fail(err error) {
	d.mu.Lock()
	d.failures++
	first := d.failures == 1
	d.mu.Unlock()
	if first && d.logf != nil {
		d.logf("wal write not durable, its acks are dropped (later failures are only counted): %v", err)
	}
}

// incarnationFile names the file in a node's DataDir that counts its
// boots.
const incarnationFile = "incarnation"

// bootIncarnation returns how many times a node booted from dir before
// this boot, and records this one. The count is replaced atomically
// (temp file, fsync, rename, directory fsync), so a crash leaves the old
// count or the new one, never a torn file, and no two boots that got as
// far as serving get the same number.
func bootIncarnation(dir string) (uint64, error) {
	path := filepath.Join(dir, incarnationFile)
	var n uint64
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if n, err = strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64); err != nil {
			return 0, fmt.Errorf("corrupt %s: %w", path, err)
		}
	case !os.IsNotExist(err):
		return 0, err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	_, err = fmt.Fprintf(f, "%d\n", n+1)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync() // best effort, as for the WAL's snapshots
		d.Close()
	}
	return n, nil
}

// recover rebuilds node from disk: latest intact checkpoint, then the
// journaled record suffix. Must run before the node's actor starts.
// The record suffix replays on one lane per execution domain
// (setDomains), in parallel: route maps each record to the domain that
// journals its key (the quorum node's ReplayDomain keys by the record's
// key hash; a node with one domain has one lane and no route) and
// same-lane order is preserved, so per-key replay order — the only order
// the protocol's state depends on — matches the serial replay exactly.
func (d *durability) recover(node durableNode, route func(rec []byte) int) error {
	d.recovering = true
	defer func() { d.recovering = false }()

	ckpt, state, found, err := wal.LatestSnapshot(d.dir)
	if err != nil {
		return err
	}
	if found {
		if err := node.RestoreState(state); err != nil {
			return fmt.Errorf("restore checkpoint @%d: %w", ckpt, err)
		}
		d.ckptSeq = ckpt
	}
	counts := make([]uint64, len(d.pending))
	err = d.log.ReplaySharded(ckpt+1, len(counts),
		func(seq uint64, rec []byte) int { return route(rec) },
		func(lane int, seq uint64, rec []byte) error {
			if err := node.ReplayRecord(rec); err != nil {
				return fmt.Errorf("replay wal record %d: %w", seq, err)
			}
			counts[lane]++ // lane-confined: no two goroutines share an index
			return nil
		})
	d.laneReplayed = counts
	for _, c := range counts {
		d.replayed += c
	}
	return err
}

// LaneReplayed returns how many WAL records recovery replayed on each
// lane (index 0 = serial records, 1+k = shard k). Nil before recovery.
func (d *durability) LaneReplayed() []uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.laneReplayed
}

// startCheckpointer periodically captures a state image via capture
// (which must run the node's Checkpoint on its actor loop and return the
// WAL seq observed there), streams it to disk from the checkpointer's own
// goroutine, and truncates covered segments.
func (d *durability) startCheckpointer(interval time.Duration, capture func() (state io.WriterTo, seq uint64, ok bool)) {
	d.stop = make(chan struct{})
	d.done = make(chan struct{})
	go func() {
		defer close(d.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-t.C:
				d.checkpoint(capture)
			}
		}
	}()
}

func (d *durability) checkpoint(capture func() (io.WriterTo, uint64, bool)) {
	if d.log.LastSeq() <= d.CheckpointSeq() {
		// Nothing journaled since the last checkpoint: do not make the
		// actor loop snapshot state that a checkpoint already covers.
		return
	}
	state, seq, ok := capture()
	if !ok {
		return
	}
	if err := wal.WriteSnapshot(d.dir, seq, state); err != nil {
		if d.logf != nil {
			d.logf("wal checkpoint @%d failed: %v", seq, err)
		}
		return
	}
	if err := d.log.TruncateThrough(seq); err != nil && d.logf != nil {
		d.logf("wal truncate through %d failed: %v", seq, err)
	}
	d.mu.Lock()
	if seq > d.ckptSeq {
		d.ckptSeq = seq
	}
	d.mu.Unlock()
}

// CheckpointSeq returns the WAL seq the latest checkpoint covers.
func (d *durability) CheckpointSeq() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ckptSeq
}

// Replayed returns how many WAL records recovery replayed at boot.
func (d *durability) Replayed() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.replayed
}

// Failures returns how many appends or durability waits failed.
func (d *durability) Failures() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failures
}

// Close stops the checkpointer and closes the log. The caller must have
// stopped the actors first so no persist call races the close.
func (d *durability) Close() {
	if d.stop != nil {
		close(d.stop)
		<-d.done
	}
	if err := d.log.Close(); err != nil && d.logf != nil {
		d.logf("wal close: %v", err)
	}
}
