package server

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/transport"
	"repro/internal/wal"
)

// gatedDisk is a journal whose fsyncs complete only when the test says
// so: commit moves the durable watermark, and nothing past it is durable.
type gatedDisk struct {
	mu      sync.Mutex
	cond    *sync.Cond
	seq     uint64 // last seq appended
	durable uint64
	open    bool // every record is durable once appended
}

func newGatedDisk(from uint64) *gatedDisk {
	g := &gatedDisk{seq: from, durable: from}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *gatedDisk) AppendAsync([]byte) (uint64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.seq++
	if g.open {
		g.durable = g.seq
	}
	return g.seq, nil
}

func (g *gatedDisk) Durable() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.durable
}

func (g *gatedDisk) WaitDurable(seq uint64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.durable < seq && !g.open {
		g.cond.Wait()
	}
	return nil
}

// appended returns the last seq appended.
func (g *gatedDisk) appended() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.seq
}

// openUp makes every record durable, now and from now on.
func (g *gatedDisk) openUp() {
	g.mu.Lock()
	g.open, g.durable = true, g.seq
	g.cond.Broadcast()
	g.mu.Unlock()
}

// commit makes every record through seq durable.
func (g *gatedDisk) commit(seq uint64) {
	g.mu.Lock()
	g.durable = max(g.durable, seq)
	g.cond.Broadcast()
	g.mu.Unlock()
}

// fanOutStub handles a message the way a coordinator handles a put: it
// sends "fan-out N" to its peers, journals its own record, then sends
// "answer N".
type fanOutStub struct{ dur *durability }

func (fanOutStub) OnStart(transport.Env)      {}
func (fanOutStub) OnTimer(transport.Env, any) {}
func (f fanOutStub) OnMessage(env transport.Env, _ string, msg transport.Message) {
	env.Send("peer", "fan-out "+msg.(string))
	f.dur.persist([]byte("record"))
	env.Send("client", "answer "+msg.(string))
}

// A send waits only for the records journaled before it in its
// invocation. The fan-out of an invocation whose record is not yet on
// disk leaves at once when the domain's queue is drained, and right
// behind the previous batch when it is not; the answer waits for the
// record.
func TestAckBarrierReleasesSendsBeforeTheFirstRecord(t *testing.T) {
	dur, err := openDurability(t.TempDir(), wal.SyncEach, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	disk := newGatedDisk(0)
	dur.j = disk
	env := &sinkEnv{}
	var mu sync.Mutex
	var posted []string
	b := newAckBarrier(fanOutStub{dur}, dur, func(_ string, msg transport.Message) {
		mu.Lock()
		posted = append(posted, msg.(string))
		mu.Unlock()
	})
	left := func() []string {
		mu.Lock()
		defer mu.Unlock()
		env.mu.Lock()
		defer env.mu.Unlock()
		return append(slices.Clone(env.sent), posted...)
	}
	expect := func(want ...string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !slices.Equal(left(), want) {
			if time.Now().After(deadline) {
				t.Fatalf("sends that left: %q, want %q", left(), want)
			}
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond) // and nothing more is on its way
		if got := left(); !slices.Equal(got, want) {
			t.Fatalf("sends that left: %q, want %q", got, want)
		}
	}

	b.OnMessage(env, "client", "1") // record 1, drained queue
	expect("fan-out 1")
	b.OnMessage(env, "client", "2") // record 2, behind record 1's batch
	expect("fan-out 1")
	disk.commit(1)
	expect("fan-out 1", "answer 1", "fan-out 2")
	disk.commit(2)
	expect("fan-out 1", "answer 1", "fan-out 2", "answer 2")
	b.Close()
}

// A quorum coordinator that holds a replica of the key applies the put
// to it in place and counts its own ack. That self-ack is never answered
// before the coordinator's record is durable: not when it meets W alone
// (one node), and not when a peer's ack completes the quorum first
// (three nodes), where the answer leaves from a later invocation that
// journals nothing. Either way the peers get the put while the
// coordinator's fsync is outstanding.
func TestSelfAckWaitsForTheCoordinatorsRecord(t *testing.T) {
	for _, nodes := range []int{1, 3} {
		t.Run(map[int]string{1: "one-node", 3: "three-nodes"}[nodes], func(t *testing.T) {
			srvs := bootCluster(t, spec{n: nodes, seed: 2000, heartbeat: fastBeat, durable: true, ckpt: -1}).srvs
			s := srvs[0]
			if coord := coordOf(s, "put", "k", geo.Strong); coord != s.ID() {
				t.Fatalf("the put is coordinated by %s, want the contacted %s", coord, s.ID())
			}
			c := dialNode(t, s, "cli")
			c.Timeout = 10 * time.Second
			if err := c.Put("k", []byte("before")); err != nil {
				t.Fatal(err)
			}

			disk := newGatedDisk(s.dur.log.Durable())
			t.Cleanup(disk.openUp) // before the servers close: their barriers drain
			swapJournal(t, s, disk)
			before := disk.appended()

			done := make(chan error, 1)
			go func() { done <- c.Put("k", []byte("after")) }()
			deadline := time.Now().Add(5 * time.Second)
			for disk.appended() == before {
				if time.Now().After(deadline) {
					t.Fatal("the coordinator never journaled the put")
				}
				time.Sleep(time.Millisecond)
			}
			for _, peer := range srvs[1:] {
				for {
					if got := peer.qnode.LocalValues("k"); len(got) == 1 && string(got[0]) == "after" {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("%s never got the put while the coordinator's fsync was outstanding", peer.ID())
					}
					time.Sleep(time.Millisecond)
				}
			}
			select {
			case err := <-done:
				t.Fatalf("the put was answered (err %v) before the coordinator's record was durable", err)
			case <-time.After(100 * time.Millisecond):
			}
			disk.commit(disk.appended())
			if err := <-done; err != nil {
				t.Fatalf("put after the commit: %v", err)
			}
		})
	}
}

// A joiner settles its join epoch in the invocation that lands its last
// range, and that invocation journals the range's completion. So the
// settle, like an ack, leaves only once the record is durable: until then
// every other member keeps the window open, and dual-applies.
func TestJoinSettlesOnlyOnceTheLastRangeIsDurable(t *testing.T) {
	cl := bootCluster(t, spec{seed: 2000, heartbeat: fastBeat, durable: true, ckpt: -1})
	srvs := cl.srvs
	c0 := cl.dial(0, "cli0")
	for i := 0; i < 40; i++ {
		if err := c0.Put(fmt.Sprintf("k%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	js := cl.join(4002, "")
	disk := newGatedDisk(js.dur.log.Durable())
	t.Cleanup(disk.openUp) // before the servers close: their barriers drain
	swapJournal(t, js, disk)
	if err := c0.AddNode("node3", js.Addr()); err != nil {
		t.Fatal(err)
	}

	// Commit everything the joiner journals except its last range's
	// record: what was appended before the ranges were seen unfinished
	// cannot include it.
	const seq = 1
	deadline := time.Now().Add(20 * time.Second)
	for {
		appended := disk.appended()
		if done, total := js.qnode.CatchUpProgress(seq); total > 0 && done == total {
			break
		}
		disk.commit(appended)
		if time.Now().After(deadline) {
			t.Fatal("the joiner never pulled its ranges")
		}
		time.Sleep(time.Millisecond)
	}
	open := func() []string {
		var ids []string
		for _, s := range srvs {
			if s.qnode.Epoch().Prev != nil {
				ids = append(ids, s.ID())
			}
		}
		return ids
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		if ids := open(); len(ids) != len(srvs) {
			t.Fatalf("only %v still hold epoch %d open: the settle left before the last range's record was durable", ids, seq)
		}
	}
	disk.openUp()
	for len(open()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%v never settled once the record was durable", open())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
