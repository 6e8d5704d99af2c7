package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// fakeNode is a client-protocol listener the test scripts by hand: it
// accepts one connection and hands over the raw socket.
func fakeNode(t *testing.T) (addr string, accepted <-chan net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ch := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			ch <- conn
		}
	}()
	return ln.Addr().String(), ch
}

// A put and a get through Client against a one-node gossip server, for
// the whole process (client and server): neither end allocates anything
// per request that it does not keep. What is left is, on each end, the
// frame body read off the socket and the boxing of the decoded message,
// and the key string the server decodes.
func TestClientRoundTripAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const budget = 6
	srvs := bootCluster(t, spec{model: "gossip", n: 1, seed: 1000, heartbeat: fastBeat}).srvs
	c := dialNode(t, srvs[0], "cli")
	const key = "user:0042"
	value := bytes.Repeat([]byte("v"), 128)
	for i := 0; i < 100; i++ { // fill the pools and the intern table
		if err := c.Put(key, value); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	put := testing.AllocsPerRun(500, func() {
		if err := c.Put(key, value); err != nil {
			t.Fatal(err)
		}
	})
	get := testing.AllocsPerRun(500, func() {
		if _, _, err := c.Get(key); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("objects per round trip: put %v, get %v", put, get)
	if put > budget || get > budget {
		t.Fatalf("a round trip allocates %v objects per put and %v per get, budget %d", put, get, budget)
	}
}

// A request whose write fails may have left part of its frame on the
// wire, and anything written after it would be read as that frame's
// tail. The failure ends the connection: the next request fails at once
// with the same sticky error and writes nothing.
func TestFailedWriteEndsTheConnection(t *testing.T) {
	addr, accepted := fakeNode(t)
	c, err := Dial(addr, "cli")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := <-accepted // never read until the end: the socket buffers fill
	defer conn.Close()
	c.Timeout = 300 * time.Millisecond

	value := make([]byte, 12<<20)
	putErr := c.Put("big", value)
	if !errors.Is(putErr, os.ErrDeadlineExceeded) {
		t.Fatalf("put of 12 MiB to a node that does not read: %v, want a write deadline error", putErr)
	}
	start := time.Now()
	_, _, getErr := c.Get("next")
	if took := time.Since(start); getErr == nil || getErr.Error() != putErr.Error() || took > c.Timeout/2 {
		t.Fatalf("the next request: %v after %v, want the put's error (%v) at once", getErr, took, putErr)
	}

	// The node got the hello and a prefix of the put's frame, then the end
	// of the stream: nothing of the get.
	hello, _ := transport.AppendFrame(nil, transport.Envelope{Msg: transport.ClientHello("cli")})
	put, _ := transport.AppendMessage(nil, Request{Seq: 1, Op: "put", Key: "big", Value: value})
	want := append(hello, put...)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("reading what the client wrote: %v (the client never closed the connection)", err)
	}
	if len(got) >= len(want) || !bytes.Equal(got, want[:len(got)]) {
		t.Fatalf("the node read %d bytes that are not a strict prefix of the hello and the put (%d bytes)", len(got), len(want))
	}
}

// An answer that arrives after its request timed out must not reach the
// request after it. The client drops a timed-out request's reply channel
// instead of recycling it (see replies): the reader may already hold the
// channel and send into it. The node here answers every "late" request
// around the client's deadline, half the time only once the client gave
// up, and then answers the next request at once.
func TestTimedOutAnswerDoesNotReachTheNextRequest(t *testing.T) {
	addr, accepted := fakeNode(t)
	c, err := Dial(addr, "cli")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := <-accepted
	defer conn.Close()
	const timeout = 20 * time.Millisecond
	c.Timeout = timeout

	gaveUp := make(chan struct{}, 1) // the test's signal that a late request timed out
	var wmu sync.Mutex
	answer := func(req Request) {
		frame, err := transport.AppendFrame(nil, transport.Envelope{From: "node0", To: "cli",
			Msg: Response{Seq: req.Seq, OK: true, Found: true, Value: []byte(req.Key)}})
		if err != nil {
			t.Error(err)
			return
		}
		wmu.Lock()
		conn.Write(frame)
		wmu.Unlock()
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		if _, _, err := transport.ReadFrame(conn); err != nil { // the hello
			return
		}
		r := bufio.NewReader(conn)
		var envs []transport.Envelope
		for i := 0; ; i++ {
			var err error
			if envs, _, err = (transport.Link{}).ReadStream(r, envs[:0]); err != nil {
				return
			}
			for _, e := range envs {
				req := e.Msg.(Request)
				if !strings.HasPrefix(req.Key, "late") {
					answer(req)
					continue
				}
				if i%4 == 0 {
					<-gaveUp
					answer(req)
					continue
				}
				go func() {
					time.Sleep(timeout - 2*time.Millisecond + time.Duration(i%5)*time.Millisecond)
					answer(req)
				}()
			}
		}
	}()

	timedOut := 0
	for i := 0; i < 40; i++ {
		late := fmt.Sprintf("late-%d", i)
		v, _, err := c.Get(late)
		switch {
		case err != nil && strings.Contains(err.Error(), "timed out"):
			timedOut++
			select {
			case gaveUp <- struct{}{}:
			default:
			}
		case err != nil || string(v) != late:
			t.Fatalf("%s: %q, %v", late, v, err)
		}
		next := fmt.Sprintf("next-%d", i)
		if v, _, err := c.Get(next); err != nil || string(v) != next {
			t.Fatalf("%s got %q, %v: the answer of another request", next, v, err)
		}
	}
	if timedOut == 0 {
		t.Fatal("no late request timed out: the test exercised nothing")
	}
	c.Close()
	<-served
}
