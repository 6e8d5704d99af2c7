package server

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/transport"
	"repro/internal/wal"
)

var errDiskGone = errors.New("injected: disk gone")

// brokenDisk is a journal whose appends succeed and whose fsyncs fail:
// nothing appended past the failure point ever becomes durable. Behind a
// live node it wraps the node's real log, so records are still written.
type brokenDisk struct {
	*wal.Log               // nil: seq counts the appends instead
	seq      atomic.Uint64 // appends when Log is nil
	failedAt uint64        // Durable() when the disk failed
}

func (d *brokenDisk) AppendAsync(rec []byte) (uint64, error) {
	if d.Log != nil {
		return d.Log.AppendAsync(rec)
	}
	return d.seq.Add(1), nil
}

func (d *brokenDisk) Durable() uint64 { return d.failedAt }

func (d *brokenDisk) WaitDurable(seq uint64) error {
	if seq <= d.failedAt {
		return nil
	}
	return errDiskGone
}

// refusingDisk is a journal that refuses every append.
type refusingDisk struct{ *brokenDisk }

func (refusingDisk) AppendAsync([]byte) (uint64, error) { return 0, errDiskGone }

// sinkEnv records what a handler sends inline.
type sinkEnv struct {
	mu   sync.Mutex
	sent []string
}

func (e *sinkEnv) ID() string                                    { return "node0" }
func (e *sinkEnv) Now() time.Duration                            { return 0 }
func (e *sinkEnv) SetTimer(time.Duration, any) transport.TimerID { return 0 }
func (e *sinkEnv) Cancel(transport.TimerID)                      {}
func (e *sinkEnv) Rand() *rand.Rand                              { return nil }
func (e *sinkEnv) Domain() int                                   { return 0 }
func (e *sinkEnv) Heartbeats() bool                              { return false }
func (e *sinkEnv) Send(_ string, msg transport.Message) {
	e.mu.Lock()
	e.sent = append(e.sent, msg.(string))
	e.mu.Unlock()
}

// swapJournal puts j behind s's durability layer while every execution
// domain of the storage node is held inside an invocation and the ack
// barrier has released every batch, so the swap is ordered before each
// domain's next invocation and before the barrier's next wait.
func swapJournal(t *testing.T, s *Server, j journal) {
	t.Helper()
	shards := 0
	if s.qnode != nil {
		shards = s.qnode.Shards()
	}
	var held sync.WaitGroup
	release := make(chan struct{})
	defer close(release)
	for shard := -1; shard < shards; shard++ {
		held.Add(1)
		if !s.tcp.InvokeShard(s.ID(), shard, func(transport.Env) {
			held.Done()
			<-release
		}) {
			t.Fatalf("%s has no shard %d", s.ID(), shard)
		}
	}
	held.Wait()
	for _, d := range s.ackB.doms {
		for d.queued.Load() != 0 {
			time.Sleep(time.Millisecond)
		}
	}
	s.dur.j = j
}

// replicaStub acks every message it gets, as a replica acks a put: a
// "write" journals a record first, a "retry" finds it already applied and
// journals nothing.
type replicaStub struct{ dur *durability }

func (replicaStub) OnStart(transport.Env)      {}
func (replicaStub) OnTimer(transport.Env, any) {}
func (r replicaStub) OnMessage(env transport.Env, from string, msg transport.Message) {
	if msg == "write" {
		r.dur.persist([]byte("record"))
	}
	env.Send(from, "ack "+msg.(string))
}

// The ack barrier posts an invocation's acks only once its records are
// durable. When the fsync fails or the append is refused, the ack is
// dropped, and so is every later ack of the domain: a retried write that
// journals nothing must not be acked on the strength of a record the
// disk does not hold.
func TestAckBarrierDropsAcksOfRecordsNotOnDisk(t *testing.T) {
	for _, tc := range []struct {
		name string
		disk journal
		want []string
	}{
		{"healthy", nil, []string{"ack write", "ack retry", "ack read"}},
		{"fsync fails", &brokenDisk{}, nil},
		{"append refused", refusingDisk{&brokenDisk{}}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dur, err := openDurability(t.TempDir(), wal.SyncEach, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			defer dur.Close()
			if tc.disk != nil {
				dur.j = tc.disk
			}
			env := &sinkEnv{}
			var posted []string
			b := newAckBarrier(replicaStub{dur}, dur, func(_ string, msg transport.Message) {
				posted = append(posted, msg.(string)) // release goroutine only
			})
			for _, m := range []string{"write", "retry", "read"} {
				b.OnMessage(env, "coordinator", m)
			}
			b.Close() // drains the release queue
			got := append(env.sent, posted...)
			if !slices.Equal(got, tc.want) {
				t.Fatalf("acks that left the node: %q, want %q", got, tc.want)
			}
			if tc.disk != nil && dur.Failures() == 0 {
				t.Fatal("the lost record was not counted in Failures")
			}
		})
	}
}

// When a live node's disk fails, the write it was journaling is not
// acknowledged, under every model: no replica ack, coordinator answer,
// session answer or gossip OK leaves the node for it. In the three-node
// quorum case the contacted node coordinates the put and both its peers
// ack it, so the put has its quorum: what must hold it back is the ack
// barrier, which drops the coordinator's answer with the rest of the
// domain's sends once the node's own record is lost.
func TestNoAckForAWriteTheDiskLost(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model string
		nodes int
	}{
		{"quorum", "quorum", 1},
		{"quorum-3-nodes", "quorum", 3},
		{"gossip", "gossip", 1},
		{"session", "session", 1},
	} {
		for _, fault := range []string{"fsync", "append"} {
			t.Run(tc.name+"/"+fault, func(t *testing.T) {
				srvs := bootCluster(t, spec{model: tc.model, n: tc.nodes, seed: 2000, heartbeat: fastBeat, durable: true, ckpt: -1}).srvs
				s := srvs[0]
				if tc.nodes > 1 {
					if coord := coordOf(s, "put", "k", geo.Strong); coord != s.ID() {
						t.Fatalf("the put is coordinated by %s, want the contacted %s", coord, s.ID())
					}
				}
				c := dialNode(t, s, "cli")
				c.Timeout = 3 * time.Second
				if err := c.Put("k", []byte("before")); err != nil {
					t.Fatalf("put before the fault: %v", err)
				}

				// Swap the failing journal in between invocations, so the
				// handlers that read it later are ordered after the write.
				broken := &brokenDisk{Log: s.dur.log, failedAt: s.dur.log.Durable()}
				var disk journal = broken
				if fault == "append" {
					disk = refusingDisk{broken}
				}
				swapJournal(t, s, disk)

				if err := c.Put("k", []byte("after")); err == nil {
					t.Fatal("a write the disk did not hold was acknowledged")
				}
				if s.dur.Failures() == 0 {
					t.Fatal("the lost write was not counted in Failures")
				}
				// The refusal leaves as soon as the record is lost, which
				// can be before the peers have installed the put.
				deadline := time.Now().Add(2 * time.Second)
				for _, peer := range srvs[1:] {
					for {
						got := peer.qnode.LocalValues("k")
						if len(got) == 1 && string(got[0]) == "after" {
							break
						}
						if time.Now().After(deadline) {
							t.Fatalf("%s holds %q, want the put it acked", peer.ID(), got)
						}
						time.Sleep(time.Millisecond)
					}
				}
			})
		}
	}
}

// Under SyncEach, journaling a record and handing its seq to the ack
// barrier allocate nothing: the barrier waits on the log's durable
// watermark, not on a channel per record.
func TestPersistAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector moves the record header to the heap")
	}
	dur, err := openDurability(t.TempDir(), wal.SyncEach, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	dur.setDomains(2)
	rec := make([]byte, 200)
	allocs := testing.AllocsPerRun(100, func() {
		dur.persistAt(1, rec)
		if dur.takePending(1) == 0 {
			t.Fatal("persistAt left nothing pending")
		}
	})
	if allocs != 0 {
		t.Fatalf("persistAt + takePending under SyncEach: %v allocs per record, want 0", allocs)
	}
}

// A node restarted from its DataDir mints no identity it issued before,
// so its first put after the restart is stored, not acked and dropped. A
// quorum node's request ids restart with the process, and the dot of a
// put is (node, request id): a repeated dot is discarded by every
// replica that saw the first, yet acknowledged. A session connection's id
// restarts too, and the session server acknowledges a request id it has
// applied for that id without applying it again.
func TestRestartedNodeMintsFreshIdentities(t *testing.T) {
	for _, model := range []string{"quorum", "session"} {
		t.Run(model, func(t *testing.T) {
			cl := bootCluster(t, spec{model: model, n: 1, seed: 2000, heartbeat: fastBeat, durable: true, ckpt: -1})
			s := cl.srvs[0]
			if s.incarnation != 0 {
				t.Fatalf("first boot has incarnation %d, want 0", s.incarnation)
			}
			c := dialNode(t, s, "cli")
			for i := 1; i <= 5; i++ {
				if err := c.Put("k", []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			c.Close()
			s2 := cl.restart(0)
			if s2.incarnation != 1 {
				t.Fatalf("second boot has incarnation %d, want 1", s2.incarnation)
			}
			c2 := dialNode(t, s2, "cli2")
			if err := c2.Put("k", []byte("after-restart")); err != nil {
				t.Fatal(err)
			}
			if model == "quorum" {
				// The new client has read nothing, so its put is
				// concurrent with v5: both are siblings, neither is lost.
				vals, err := c2.GetSiblings("k")
				got := make([]string, len(vals))
				for i, v := range vals {
					got[i] = string(v)
				}
				slices.Sort(got)
				if err != nil || !slices.Equal(got, []string{"after-restart", "v5"}) {
					t.Fatalf("siblings of k after the restart = %q/%v, want [after-restart v5]", got, err)
				}
				return
			}
			if v, found, err := c2.Get("k"); err != nil || !found || string(v) != "after-restart" {
				t.Fatalf("get k after the restart = %q/%v/%v, want after-restart", v, found, err)
			}
		})
	}
}
