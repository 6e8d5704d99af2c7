package server

import (
	"bufio"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/session"
	"repro/internal/transport"
)

// TestSessionOpIsACallNotAMessage: a session put or get is served in
// place, as one call on the node's loop, like a gossip operation. On a
// one-node cluster, which has no peer to send to, the operations send no
// message at all.
func TestSessionOpIsACallNotAMessage(t *testing.T) {
	s := bootCluster(t, spec{model: "session", n: 1, seed: 1000, heartbeat: fastBeat}).srvs[0]
	c := dialNode(t, s, "cli")
	inProcess := func() uint64 {
		st := s.tcp.Stats()
		return st.MessagesSent - st.EnvelopesSent
	}
	before := inProcess()
	const ops = 100
	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := c.Put(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if v, found, err := c.Get(key); err != nil || !found || string(v) != "v" {
			t.Fatalf("get %s = %q/%v/%v, want v", key, v, found, err)
		}
	}
	sent := inProcess() - before
	t.Logf("%.2f in-process messages per session operation", float64(sent)/(2*ops))
	if sent != 0 {
		t.Fatalf("%d session operations sent %d in-process messages, want none", 2*ops, sent)
	}
}

// A put and a get of one key, pipelined in one write, run in arrival
// order on the node's loop: the get reads the put.
func TestPipelinedSessionPutThenGetReadsThePut(t *testing.T) {
	s := bootCluster(t, spec{model: "session", seed: 1000, heartbeat: fastBeat}).srvs[0]
	rc := dialRaw(t, s, "cli")
	rc.send(1, Request{Op: "put", Key: "k", Value: []byte("v")}, Request{Op: "get", Key: "k"})
	got := rc.answers(2)
	put, get := got[1], got[2]
	if !put.OK || put.Token.Write.Get("node0") != 1 {
		t.Fatalf("put answered %+v, want its write id node0:1 in the token", put)
	}
	if !get.OK || !get.Found || string(get.Value) != "v" || get.Token.Read.Get("node0") < 1 {
		t.Fatalf("get answered %+v, want v, read at a vector that covers the put", get)
	}
}

// An operation whose floor names a write the node will never see waits
// out BlockTimeout at the node it reached, then answers "timed out" with
// the token it came with, for the client to carry to another node. The
// write is not applied.
func TestSessionOpTimesOutWithItsToken(t *testing.T) {
	s := bootCluster(t, spec{model: "session", n: 1, seed: 1000, heartbeat: fastBeat}).srvs[0]
	rc := dialRaw(t, s, "cli")
	tok := session.Token{Write: clock.Vector{{ID: "node9", Counter: 1}}}
	start := time.Now()
	rc.send(1, Request{Op: "get", Key: "k", Token: &tok}, Request{Op: "put", Key: "k", Value: []byte("v"), Token: &tok})
	got := rc.answers(2)
	t.Logf("answered after %v", time.Since(start))
	for seq, want := range map[uint64]string{1: "session read timed out", 2: "session write timed out"} {
		resp := got[seq]
		if resp.Err != want || len(resp.Token.Read) != 0 || len(resp.Token.Write) != 1 || resp.Token.Write.Get("node9") != 1 {
			t.Fatalf("request %d answered %+v, want %q with the token %v unchanged", seq, resp, want, tok)
		}
	}
	if v, ok := s.sessN.Value("k"); ok {
		t.Fatalf("the timed-out put was applied: k = %q", v)
	}
}

// fakeSession dials a Client to a node the test plays by hand: next
// returns the next request the client wrote, and answer writes resp to
// the client.
func fakeSession(t *testing.T) (c *Client, next func() Request, answer func(resp Response)) {
	t.Helper()
	addr, accepted := fakeNode(t)
	c, err := Dial(addr, "cli")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	conn := <-accepted
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, _, err := transport.ReadFrame(conn); err != nil { // the hello
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	var read []transport.Envelope
	next = func() Request {
		t.Helper()
		for len(read) == 0 {
			if read, _, err = (transport.Link{}).ReadStream(r, read); err != nil {
				t.Fatal(err)
			}
		}
		req := read[0].Msg.(Request)
		read = read[1:]
		return req
	}
	answer = func(resp Response) {
		t.Helper()
		frame, err := transport.AppendMessage(nil, resp)
		if err == nil {
			_, err = conn.Write(frame)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return c, next, answer
}

// Two pipelined puts at one node: the second's answer carries the higher
// write id, the first's a read the second's lacks. The client joins
// every answer's token into its own, so in either arrival order its token
// covers both.
func TestPipelinedAnswersJoinIntoTheToken(t *testing.T) {
	for _, reversed := range []bool{false, true} {
		t.Run(fmt.Sprintf("reversed=%v", reversed), func(t *testing.T) {
			c, next, answer := fakeSession(t)
			done := make(chan error, 2)
			for _, key := range []string{"a", "b"} {
				go func() { done <- c.Put(key, []byte("v")) }()
			}
			reqs := []Request{next(), next()}
			sort.Slice(reqs, func(i, j int) bool { return reqs[i].Seq < reqs[j].Seq })
			resps := []Response{
				{Seq: reqs[0].Seq, OK: true, Token: &session.Token{Read: clock.Vector{{ID: "node2", Counter: 5}}, Write: clock.Vector{{ID: "node0", Counter: 1}}}},
				{Seq: reqs[1].Seq, OK: true, Token: &session.Token{Write: clock.Vector{{ID: "node0", Counter: 2}}}},
			}
			if reversed {
				resps[0], resps[1] = resps[1], resps[0]
			}
			for _, resp := range resps {
				answer(resp)
			}
			for range reqs {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			if tok := c.Token(); tok.Read.Get("node2") != 5 || tok.Write.Get("node0") != 2 {
				t.Fatalf("token %+v, want read node2:5 and write node0:2", tok)
			}
		})
	}
}

// A SetToken made while an operation is in flight survives its answer:
// the answer joins into the token set, it does not replace it. Token and
// SetToken copy, so neither the caller's token nor the client's changes
// with the other.
func TestSetTokenSurvivesAnInFlightAnswer(t *testing.T) {
	c, next, answer := fakeSession(t)
	done := make(chan error, 1)
	go func() { done <- c.Put("k", []byte("v")) }()
	req := next()
	set := session.Token{Write: clock.Vector{{ID: "node1", Counter: 9}}}
	c.SetToken(set)
	answer(Response{Seq: req.Seq, OK: true, Token: &session.Token{Write: clock.Vector{{ID: "node0", Counter: 1}}}})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	got := c.Token()
	if got.Write.Get("node1") != 9 || got.Write.Get("node0") != 1 {
		t.Fatalf("token %+v, want the token set (node1:9) joined with the answer's (node0:1)", got)
	}
	got.Write, set.Write = got.Write.With("node1", 0), set.Write.With("node1", 0)
	if c.Token().Write.Get("node1") != 9 {
		t.Fatal("changing a token handed to or by the client changed the client's")
	}
}
