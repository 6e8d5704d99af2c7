package session

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/transport"
)

func buildServers(t *testing.T, n int, cfg ServerConfig, seed int64) (*sim.Cluster, []*Server, []string) {
	t.Helper()
	c := sim.New(sim.Config{Seed: seed, Latency: sim.Uniform(time.Millisecond, 5*time.Millisecond)})
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("srv%d", i)
	}
	servers := make([]*Server, n)
	for i, id := range ids {
		sc := cfg
		for _, p := range ids {
			if p != id {
				sc.Peers = append(sc.Peers, p)
			}
		}
		servers[i] = NewServer(id, sc)
		c.AddNode(id, servers[i])
	}
	return c, servers, ids
}

func TestWriteReplicatesByAntiEntropy(t *testing.T) {
	c, servers, ids := buildServers(t, 4, ServerConfig{AntiEntropyInterval: 20 * time.Millisecond}, 1)
	cl := NewClient("client", Guarantees{})
	c.AddNode("client", cl)
	env := c.ClientEnv("client")
	c.At(0, func() { cl.Write(env, ids[0], "k", []byte("v"), nil) })
	c.Run(3 * time.Second)
	for i, s := range servers {
		v, ok := s.Value("k")
		if !ok || string(v) != "v" {
			t.Fatalf("server %d missing write: %q ok=%v", i, v, ok)
		}
	}
}

func TestRYWAnomalyWithoutGuarantee(t *testing.T) {
	// Write at server 0, immediately read at server 3 (before
	// anti-entropy): without RYW the read misses the session's own write.
	c, _, ids := buildServers(t, 4, ServerConfig{AntiEntropyInterval: 500 * time.Millisecond}, 2)
	cl := NewClient("client", Guarantees{})
	c.AddNode("client", cl)
	env := c.ClientEnv("client")
	var read ReadResult
	done := false
	c.At(0, func() {
		cl.Write(env, ids[0], "k", []byte("v"), func(WriteResult) {
			cl.Read(env, ids[3], "k", func(r ReadResult) { read = r; done = true })
		})
	})
	c.Run(time.Second)
	if !done {
		t.Fatal("read never completed")
	}
	if read.OK {
		t.Fatal("read at a lagging server returned the write without RYW — anomaly model broken")
	}
}

func TestRYWGuaranteeBlocksUntilVisible(t *testing.T) {
	c, servers, ids := buildServers(t, 4, ServerConfig{AntiEntropyInterval: 100 * time.Millisecond}, 3)
	cl := NewClient("client", Guarantees{ReadYourWrites: true})
	c.AddNode("client", cl)
	env := c.ClientEnv("client")
	var read ReadResult
	var readDone time.Duration
	c.At(0, func() {
		cl.Write(env, ids[0], "k", []byte("v"), func(WriteResult) {
			cl.Read(env, ids[3], "k", func(r ReadResult) { read = r; readDone = c.Now() })
		})
	})
	c.Run(5 * time.Second)
	if !read.OK || string(read.Value) != "v" {
		t.Fatalf("RYW read = %+v", read)
	}
	if readDone < 50*time.Millisecond {
		t.Fatalf("read completed at %v — too fast to have waited for anti-entropy", readDone)
	}
	if servers[3].BlockedServed == 0 {
		t.Fatal("server never blocked the read")
	}
}

func TestMonotonicReadsNeverGoBackwards(t *testing.T) {
	// Session reads from a fresh server then a stale one: with MR the
	// stale server must block until it has caught up, so the second read
	// cannot return an older state.
	c, _, ids := buildServers(t, 4, ServerConfig{AntiEntropyInterval: 100 * time.Millisecond}, 4)
	writer := NewClient("writer", Guarantees{})
	reader := NewClient("reader", Guarantees{MonotonicReads: true})
	c.AddNode("writer", writer)
	c.AddNode("reader", reader)
	wenv, renv := c.ClientEnv("writer"), c.ClientEnv("reader")
	c.At(0, func() { writer.Write(wenv, ids[0], "k", []byte("v1"), nil) })
	c.At(time.Second, func() { writer.Write(wenv, ids[0], "k", []byte("v2"), nil) })
	var vals []string
	// Read v2 from the fresh server, then immediately from a stale one.
	c.At(1100*time.Millisecond, func() {
		reader.Read(renv, ids[0], "k", func(r1 ReadResult) {
			reader.Read(renv, ids[2], "k", func(r2 ReadResult) {
				vals = append(vals, string(r1.Value), string(r2.Value))
			})
		})
	})
	c.Run(10 * time.Second)
	if len(vals) != 2 {
		t.Fatalf("reads incomplete: %v", vals)
	}
	if vals[0] == "v2" && vals[1] == "v1" {
		t.Fatal("monotonic reads violated: v2 then v1")
	}
	if vals[1] != vals[0] {
		t.Fatalf("second read %q older than first %q", vals[1], vals[0])
	}
}

func TestMonotonicReadsAnomalyWithoutGuarantee(t *testing.T) {
	c, _, ids := buildServers(t, 4, ServerConfig{AntiEntropyInterval: time.Second}, 5)
	writer := NewClient("writer", Guarantees{})
	reader := NewClient("reader", Guarantees{})
	c.AddNode("writer", writer)
	c.AddNode("reader", reader)
	wenv, renv := c.ClientEnv("writer"), c.ClientEnv("reader")
	c.At(0, func() { writer.Write(wenv, ids[0], "k", []byte("v1"), nil) })
	var vals []string
	c.At(100*time.Millisecond, func() {
		reader.Read(renv, ids[0], "k", func(r1 ReadResult) {
			reader.Read(renv, ids[2], "k", func(r2 ReadResult) {
				vals = append(vals, fmt.Sprint(r1.OK), fmt.Sprint(r2.OK))
			})
		})
	})
	c.Run(3 * time.Second)
	if len(vals) != 2 {
		t.Fatalf("reads incomplete: %v", vals)
	}
	if vals[0] != "true" || vals[1] != "false" {
		t.Fatalf("expected fresh-then-stale anomaly, got %v", vals)
	}
}

func TestMonotonicWritesOrderEnforced(t *testing.T) {
	// Two writes from the same session at different servers: with MW the
	// second server must have seen the first write before accepting the
	// second, so LWW resolution can never leave the first write as the
	// final value anywhere.
	c, servers, ids := buildServers(t, 3, ServerConfig{AntiEntropyInterval: 50 * time.Millisecond}, 6)
	cl := NewClient("client", Guarantees{MonotonicWrites: true})
	c.AddNode("client", cl)
	env := c.ClientEnv("client")
	c.At(0, func() {
		cl.Write(env, ids[0], "k", []byte("first"), func(WriteResult) {
			cl.Write(env, ids[2], "k", []byte("second"), nil)
		})
	})
	c.Run(5 * time.Second)
	for i, s := range servers {
		v, ok := s.Value("k")
		if !ok || string(v) != "second" {
			t.Fatalf("server %d final value %q, want second", i, v)
		}
	}
}

func TestWritesFollowReads(t *testing.T) {
	// Session A writes "question"; session B reads it at server 0 and
	// writes "answer" at server 2. With WFR, server 2 must have the
	// question before accepting the answer, so anywhere the answer is
	// visible, the question is too (and LWW orders answer after).
	c, servers, ids := buildServers(t, 3, ServerConfig{AntiEntropyInterval: 50 * time.Millisecond}, 7)
	a := NewClient("a", Guarantees{})
	b := NewClient("b", Guarantees{WritesFollowReads: true})
	c.AddNode("a", a)
	c.AddNode("b", b)
	aenv, benv := c.ClientEnv("a"), c.ClientEnv("b")
	c.At(0, func() {
		a.Write(aenv, ids[0], "q", []byte("question"), func(WriteResult) {
			b.Read(benv, ids[0], "q", func(ReadResult) {
				b.Write(benv, ids[2], "ans", []byte("answer"), nil)
			})
		})
	})
	c.Run(5 * time.Second)
	for i, s := range servers {
		if _, ok := s.Value("ans"); !ok {
			continue // not replicated here yet is fine
		}
		if _, ok := s.Value("q"); !ok {
			t.Fatalf("server %d has the answer without the question", i)
		}
	}
	// And eventually everywhere.
	if _, ok := servers[1].Value("ans"); !ok {
		t.Fatal("answer never replicated to server 1")
	}
}

func TestBlockTimeoutFires(t *testing.T) {
	// A session demands a state no server can ever reach (the only
	// server holding the write is partitioned away): the blocked read
	// must time out rather than hang forever.
	c, _, ids := buildServers(t, 3, ServerConfig{
		AntiEntropyInterval: 20 * time.Millisecond,
		BlockTimeout:        300 * time.Millisecond,
	}, 8)
	cl := NewClient("client", All())
	c.AddNode("client", cl)
	env := c.ClientEnv("client")
	var read ReadResult
	done := false
	c.At(0, func() {
		cl.Write(env, ids[0], "k", []byte("v"), func(WriteResult) {
			// Cut ids[0] (the only holder) off, then demand RYW at ids[1].
			c.Partition([]string{ids[0]}, []string{ids[1], ids[2], "client"})
			cl.Read(env, ids[1], "k", func(r ReadResult) { read = r; done = true })
		})
	})
	c.Run(5 * time.Second)
	if !done {
		t.Fatal("blocked read never resolved")
	}
	if !read.TimedOut {
		t.Fatalf("read = %+v, want TimedOut (guarantee unsatisfiable)", read)
	}
}

func TestDeleteReplicates(t *testing.T) {
	c, servers, ids := buildServers(t, 3, ServerConfig{AntiEntropyInterval: 20 * time.Millisecond}, 9)
	cl := NewClient("client", All())
	c.AddNode("client", cl)
	env := c.ClientEnv("client")
	c.At(0, func() {
		cl.Write(env, ids[0], "k", []byte("v"), func(WriteResult) {
			cl.Delete(env, ids[1], "k", nil)
		})
	})
	c.Run(3 * time.Second)
	for i, s := range servers {
		if _, ok := s.Value("k"); ok {
			t.Fatalf("server %d still has deleted key", i)
		}
	}
}

func TestSessionVectorsIndependentAcrossClients(t *testing.T) {
	// A second session must not inherit the first one's floors: a fresh
	// client reading at a stale server succeeds immediately.
	c, _, ids := buildServers(t, 3, ServerConfig{AntiEntropyInterval: time.Second}, 10)
	a := NewClient("a", All())
	b := NewClient("b", All())
	c.AddNode("a", a)
	c.AddNode("b", b)
	aenv, benv := c.ClientEnv("a"), c.ClientEnv("b")
	var bDone time.Duration = -1
	c.At(0, func() {
		a.Write(aenv, ids[0], "k", []byte("v"), func(WriteResult) {
			b.Read(benv, ids[2], "k", func(ReadResult) { bDone = c.Now() })
		})
	})
	c.Run(3 * time.Second)
	if bDone < 0 {
		t.Fatal("b's read never completed")
	}
	if bDone > 100*time.Millisecond {
		t.Fatalf("fresh session's read took %v — it must not wait on another session's writes", bDone)
	}
}

// Writes served in place carry no client identity: the client that
// started them never re-sends one, so they leave no at-most-once entry
// behind on any replica. A simulator client's writes, which its
// resilience policy may re-send to another server, still record theirs.
func TestInPlaceWritesLeaveNoClientEntries(t *testing.T) {
	c, servers, ids := buildServers(t, 3, ServerConfig{AntiEntropyInterval: 20 * time.Millisecond}, 7)
	cl := NewClient("client", Guarantees{})
	c.AddNode("client", cl)
	var answers []Answer
	c.At(0, func() {
		env := c.ClientEnv(ids[0])
		for i := 0; i < 3; i++ {
			servers[0].Write(env, "k", []byte{byte(i)}, false, Token{}, func(_ transport.Env, a Answer) {
				answers = append(answers, a)
			})
		}
	})
	c.Run(time.Second)
	if len(answers) != 3 {
		t.Fatalf("%d of 3 in-place writes answered", len(answers))
	}
	for i, a := range answers {
		if a.TimedOut || a.Token.Write.Get(ids[0]) != uint64(i+1) {
			t.Fatalf("write %d answered %+v, want its write id %s:%d in the token", i, a, ids[0], i+1)
		}
	}
	for _, s := range servers {
		if s.Vector().Get(ids[0]) != 3 {
			t.Fatalf("%s holds %v, want the 3 writes", s.id, s.Vector())
		}
		if len(s.cliSeq) != 0 || len(s.lastWID) != 0 {
			t.Fatalf("%s keeps client entries %v / %v for writes served in place", s.id, s.cliSeq, s.lastWID)
		}
	}

	c.After(0, func() { cl.Write(c.ClientEnv("client"), ids[1], "k", []byte("actor"), nil) })
	c.Run(2 * time.Second)
	for _, s := range servers {
		if s.cliSeq["client"] != 1 || s.lastWID["client"] != (WriteID{Origin: ids[1], Seq: 1}) {
			t.Fatalf("%s keeps %v / %v, want the simulator client's write recorded", s.id, s.cliSeq, s.lastWID)
		}
	}
}
