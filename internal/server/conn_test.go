package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/transport"
)

// rawClient speaks the client protocol over a bare socket, so a test can
// pipeline requests without a goroutine each, stop reading, or count the
// answers frame by frame.
type rawClient struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func dialRaw(t *testing.T, s *Server, id string) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := transport.WriteFrame(conn, transport.Envelope{Msg: transport.ClientHello(id)}); err != nil {
		t.Fatal(err)
	}
	return &rawClient{t: t, conn: conn, r: bufio.NewReader(conn)}
}

// send writes reqs in one write, numbering them from seq.
func (rc *rawClient) send(seq uint64, reqs ...Request) {
	rc.t.Helper()
	var buf []byte
	for i, req := range reqs {
		req.Seq = seq + uint64(i)
		var err error
		if buf, err = transport.AppendMessage(buf, req); err != nil {
			rc.t.Fatal(err)
		}
	}
	if _, err := rc.conn.Write(buf); err != nil {
		rc.t.Fatal(err)
	}
}

// answers reads until n requests are answered, failing on a second answer
// to one of them, and then checks that nothing more arrives.
func (rc *rawClient) answers(n int) map[uint64]Response {
	rc.t.Helper()
	got := make(map[uint64]Response, n)
	rc.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var envs []transport.Envelope
	for len(got) < n {
		var err error
		if envs, _, err = (transport.Link{}).ReadStream(rc.r, envs[:0]); err != nil {
			rc.t.Fatalf("after %d of %d answers: %v", len(got), n, err)
		}
		for _, e := range envs {
			resp := e.Msg.(Response)
			if _, dup := got[resp.Seq]; dup {
				rc.t.Fatalf("request %d answered twice", resp.Seq)
			}
			got[resp.Seq] = resp
		}
	}
	rc.conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, _, err := (transport.Link{}).ReadStream(rc.r, nil); !errors.Is(err, os.ErrDeadlineExceeded) {
		rc.t.Fatalf("after the %d answers: %v, want nothing more", n, err)
	}
	return got
}

func gets(key string, n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Op: "get", Key: key}
	}
	return reqs
}

// requests is how many op requests s has started.
func requests(s *Server, op string) uint64 {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	return s.reqCount.Get(requestCounter(op))
}

// inflight counts the operations started on s's client connections whose
// answers are not yet written.
func inflight(s *Server) (n int) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	for c := range s.conns {
		c.mu.Lock()
		n += len(c.slots) - len(c.free)
		c.mu.Unlock()
	}
	return n
}

// eventually polls cond for up to 10 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("never: %s", what)
		}
	}
}

// parkActor blocks s's storage loop until the returned func is called.
func parkActor(t *testing.T, s *Server) (release func()) {
	t.Helper()
	parked, unpark := make(chan struct{}), make(chan struct{})
	if !s.tcp.Invoke(s.ID(), func(transport.Env) {
		close(parked)
		<-unpark
	}) {
		t.Fatal("the node is stopped")
	}
	<-parked
	return func() { close(unpark) }
}

// The node reads a client's hello and nothing behind it: a client that
// writes its hello and its first requests in one write gets every answer.
func TestHelloAndFirstRequestInOneWrite(t *testing.T) {
	s := bootCluster(t, spec{model: "gossip", n: 1, seed: 1000, heartbeat: fastBeat}).srvs[0]
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	buf, err := transport.AppendFrame(nil, transport.Envelope{Msg: transport.ClientHello("cli")})
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range []Request{{Op: "put", Key: "k", Value: []byte("v")}, {Op: "get", Key: "k"}} {
		req.Seq = uint64(1 + i)
		if buf, err = transport.AppendMessage(buf, req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	rc := &rawClient{t: t, conn: conn, r: bufio.NewReader(conn)}
	got := rc.answers(2)
	if !got[1].OK || !got[2].OK || !got[2].Found || string(got[2].Value) != "v" {
		t.Fatalf("answers %+v, want the put acknowledged and the get to read v", got)
	}
}

// A client that pipelines reads of a large value and never reads its
// answers fills its socket, and then its 128 in-flight slots, and stops
// being read. The loop that answers it writes without blocking, so it
// keeps serving everyone else: every put of another client finishes
// quickly.
func TestSlowClientDoesNotStallTheNode(t *testing.T) {
	s := bootCluster(t, spec{model: "gossip", n: 1, seed: 1000, heartbeat: fastBeat}).srvs[0]
	if err := dialNode(t, s, "loader").Put("big", make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	dialRaw(t, s, "slow").send(1, gets("big", 400)...)
	eventually(t, "the slow client's gets fill its slots", func() bool { return requests(s, "get") >= maxClientInflight })

	fast := dialNode(t, s, "fast")
	var worst time.Duration
	for i := 0; i < 200; i++ {
		start := time.Now()
		if err := fast.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		worst = max(worst, time.Since(start))
	}
	t.Logf("slowest of 200 puts beside the stalled client: %v", worst)
	if worst > 200*time.Millisecond {
		t.Fatalf("a put took %v while another client did not read its answers", worst)
	}
}

// Every operation is answered exactly once, whatever ends it, or not at
// all once its connection closed; and every in-flight slot comes back.
func TestEveryOperationAnswersOnce(t *testing.T) {
	t.Run("lost barrier domain", func(t *testing.T) {
		s := bootCluster(t, spec{model: "gossip", n: 1, seed: 2000, heartbeat: fastBeat, durable: true, ckpt: -1}).srvs[0]
		rc := dialRaw(t, s, "cli")
		rc.send(1, Request{Op: "put", Key: "k", Value: []byte("before")})
		if resp := rc.answers(1)[1]; !resp.OK {
			t.Fatalf("put before the fault: %s", resp.Err)
		}
		swapped := make(chan struct{})
		s.tcp.Invoke(s.ID(), func(transport.Env) {
			s.dur.j = &brokenDisk{Log: s.dur.log, failedAt: s.dur.log.Durable()}
			close(swapped)
		})
		<-swapped
		var reqs []Request
		for i := 0; i < 10; i++ {
			reqs = append(reqs, Request{Op: "put", Key: "k", Value: []byte("after")}, Request{Op: "get", Key: "k"})
		}
		rc.send(2, reqs...)
		for seq, resp := range rc.answers(len(reqs)) {
			if resp.Err != errNotDurable {
				t.Fatalf("request %d: %+v, want %q", seq, resp, errNotDurable)
			}
		}
		eventually(t, "every slot comes back", func() bool { return inflight(s) == 0 })
	})

	t.Run("quorum time-out", func(t *testing.T) {
		srvs := bootCluster(t, spec{model: "quorum", seed: 1000, heartbeat: fastBeat}).srvs
		srvs[1].Close()
		srvs[2].Close()
		rc := dialRaw(t, srvs[0], "cli")
		var reqs []Request
		for i := 0; i < 10; i++ {
			reqs = append(reqs, Request{Op: "put", Key: fmt.Sprintf("k%d", i), Value: []byte("v")})
		}
		rc.send(1, reqs...)
		for seq, resp := range rc.answers(len(reqs)) {
			if resp.OK {
				t.Fatalf("put %d met W=2 with both peers stopped", seq)
			}
		}
		eventually(t, "every slot comes back", func() bool { return inflight(srvs[0]) == 0 })
	})

	t.Run("stopped node", func(t *testing.T) {
		srvs := bootCluster(t, spec{model: "quorum", seed: 1000, heartbeat: fastBeat}).srvs
		srvs[1].Close()
		srvs[2].Close()
		rc := dialRaw(t, srvs[0], "cli")
		var reqs []Request
		for i := 0; i < 10; i++ {
			reqs = append(reqs, Request{Op: "put", Key: fmt.Sprintf("k%d", i), Value: []byte("v")})
		}
		rc.send(1, reqs...)
		eventually(t, "the puts start", func() bool { return requests(srvs[0], "put") == uint64(len(reqs)) })
		srvs[0].Close() // the puts wait for peers: their timers stop with the node
		for seq, resp := range rc.answers(len(reqs)) {
			if resp.OK {
				t.Fatalf("put %d acknowledged without its quorum", seq)
			}
		}
		eventually(t, "every slot comes back", func() bool { return inflight(srvs[0]) == 0 })
	})

	t.Run("forwarded op whose coordinator is down", func(t *testing.T) {
		srvs := bootCluster(t, spec{model: "quorum", n: 5, seed: 1000, heartbeat: fastBeat}).srvs
		s := srvs[0]
		far := keyWhere(t, s, func(p []string) bool { return !slices.Contains(p, "node0") })
		owner := s.Ring().Owner(far)
		for _, o := range srvs {
			if o.ID() == owner {
				o.Close()
			}
		}
		rc := dialRaw(t, s, "cli")
		var reqs []Request
		for i := 0; i < 4; i++ {
			reqs = append(reqs, Request{Op: "put", Key: far, Value: []byte("v")}, Request{Op: "get", Key: far})
		}
		rc.send(1, reqs...)
		rc.answers(len(reqs))
		eventually(t, "every slot comes back", func() bool { return inflight(s) == 0 })
	})

	t.Run("closed connection", func(t *testing.T) {
		s := bootCluster(t, spec{model: "gossip", n: 1, seed: 1000, heartbeat: fastBeat}).srvs[0]
		rc := dialRaw(t, s, "cli")
		release := parkActor(t, s)
		rc.send(1, gets("k", 20)...)
		eventually(t, "the gets start", func() bool { return requests(s, "get") == 20 })
		rc.conn.Close()
		release()
		eventually(t, "the connection ends with every slot back", func() bool {
			s.connMu.Lock()
			defer s.connMu.Unlock()
			return len(s.conns) == 0
		})
	})
}

// The connection's reader starts an operation and does not wait for it:
// a hundred pipelined requests queued behind a busy storage loop hold no
// goroutine each.
func TestRequestsStartNoGoroutines(t *testing.T) {
	s := bootCluster(t, spec{model: "gossip", n: 1, seed: 1000, heartbeat: fastBeat}).srvs[0]
	rc := dialRaw(t, s, "cli")
	eventually(t, "the connection is served", func() bool {
		s.connMu.Lock()
		defer s.connMu.Unlock()
		return len(s.conns) == 1
	})
	release := parkActor(t, s)
	before := runtime.NumGoroutine()
	const n = 100
	rc.send(1, gets("k", n)...)
	eventually(t, "the gets start", func() bool { return requests(s, "get") == n })
	grew := runtime.NumGoroutine() - before
	release()
	rc.answers(n)
	t.Logf("%d requests queued behind the loop grew the goroutines by %d", n, grew)
	if grew >= 10 {
		t.Fatalf("%d requests queued behind the loop grew the goroutines by %d, want < 10", n, grew)
	}
}

// A connection costs the same goroutines under every model, its reader
// and its writer: no model hosts anything else for a client.
func TestConnectionCostsTheSameUnderEveryModel(t *testing.T) {
	const conns = 20
	grew := map[string]int{}
	for _, model := range []string{"gossip", "quorum", "session"} {
		t.Run(model, func(t *testing.T) {
			s := bootCluster(t, spec{model: model, n: 1, seed: 1000, heartbeat: fastBeat}).srvs[0]
			before := settledGoroutines()
			for i := 0; i < conns; i++ {
				dialRaw(t, s, fmt.Sprintf("cli%d", i))
			}
			eventually(t, "the connections are served", func() bool {
				s.connMu.Lock()
				defer s.connMu.Unlock()
				return len(s.conns) == conns
			})
			grew[model] = settledGoroutines() - before
			t.Logf("%d connections grew the goroutines by %d", conns, grew[model])
		})
	}
	for model, n := range grew {
		if d := n - grew["gossip"]; d >= conns/2 || d <= -conns/2 {
			t.Errorf("%d %s connections cost %d goroutines, %d gossip ones %d", conns, model, n, conns, grew["gossip"])
		}
	}
}

// settledGoroutines counts the goroutines once the count holds still
// for a few samples: goroutines that are about to exit (an accept
// handshake's) are not counted.
func settledGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for same < 5 {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}
