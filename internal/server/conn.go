package server

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/clock"
	"repro/internal/geo"
	"repro/internal/quorum"
	"repro/internal/session"
	"repro/internal/transport"
	"repro/internal/wire"
)

// maxClientInflight caps the operations of one client connection that
// are not yet answered on the wire. When the cap is reached the reader
// stops pulling frames, so an over-eager pipelining client sees TCP
// backpressure rather than unbounded server memory.
const maxClientInflight = 128

// writeTimeout bounds a blocking write of answers to a client.
const writeTimeout = 30 * time.Second

// errNotDurable answers an operation whose answer the ack barrier dropped:
// a record of its execution domain never reached the disk.
const errNotDurable = "write not durable: the node's WAL failed"

// clientConn is the server side of one client connection. Requests are
// pipelined: the client tags each with a sequence number and may send the
// next before the previous answered. The reader starts every operation
// and does not wait for it. The operation completes on whichever
// goroutine finishes it (an actor or shard loop, a barrier release
// goroutine, an admin goroutine), and that goroutine encodes the answer
// into the connection's output buffer and writes it. A loop never blocks
// on a client socket: the completion makes one non-blocking write, and
// what the kernel does not take goes to the connection's writer
// goroutine. The connection keeps nothing for its client but the
// operations in flight: a session client's token, like a quorum client's
// contexts, travels with its requests.
type clientConn struct {
	s    *Server
	link transport.Link // as the client's hello named it: Remote is the client's id
	conn net.Conn
	raw  syscall.RawConn // nil if conn has no descriptor: the writer goroutine writes everything

	// free holds the slots whose answers are written (or dropped with a
	// broken connection). made, the number of slots made so far, is the
	// reader's.
	free chan *opSlot
	made int

	mu      sync.Mutex
	slots   []*opSlot // every slot made, for Server.Close
	queued  []*opSlot // answered, each holding its answer in resp, for a writer to take
	spare   []*opSlot // the last batch written, for reuse
	writing bool      // a writer owns the socket and the fields below
	broken  bool      // a write failed: answers are dropped

	// The writer's: the batch it took and its framed answers, and the
	// outcome of the last non-blocking attempt (rawWrite's results).
	wheld   []*opSlot
	wbuf    []byte
	wn      int
	werr    error
	rawFunc func(fd uintptr) bool // c.rawWrite, bound once

	// wake hands an unfinished write to the writer goroutine. Only the
	// writer sends, and the goroutine takes the token before writing, so
	// the send never blocks.
	wake chan struct{}
}

// Slot states. An operation is answered once: whoever swaps its slot back
// to idle sends the answer.
const (
	slotIdle  uint32 = iota
	slotOp           // a put, get or delete on the protocol
	slotAdmin        // an admin operation on its own goroutine
)

// opSlot carries one operation from its start to its answer. A
// connection reuses its slots, and each binds its callbacks once, so
// starting and completing an operation allocates no closure.
type opSlot struct {
	c     *clientConn
	state atomic.Uint32
	req   Request
	start time.Time

	ctx clock.Vector // the causal context a quorum request carried

	resp   Response // the answer, while the ack barrier holds it or it waits for a writer
	ctxBuf []byte   // the answer's Context, reused by the slot's operations

	guarded, exec    func(transport.Env)
	quorumPut        func(transport.Env, quorum.PutResult)
	quorumGet        func(transport.Env, quorum.GetResult)
	sessDone         func(transport.Env, session.Answer)
	deliver, dropped func()
}

// serveClient reads one client connection's requests and starts each.
func (s *Server) serveClient(link transport.Link, conn net.Conn) {
	c := &clientConn{
		s:    s,
		link: link,
		conn: conn,
		free: make(chan *opSlot, maxClientInflight),
		wake: make(chan struct{}, 1),
	}
	c.rawFunc = c.rawWrite
	if sc, ok := conn.(syscall.Conn); ok {
		c.raw, _ = sc.SyscallConn()
	}
	s.connMu.Lock()
	s.conns[c] = struct{}{}
	s.connMu.Unlock()
	go c.writer()
	defer c.close()

	r := bufio.NewReaderSize(conn, transport.ReadBufferSize)
	var envs []transport.Envelope
	for {
		conn.SetReadDeadline(time.Now().Add(5 * time.Minute))
		var err error
		envs, _, err = link.ReadStream(r, envs[:0])
		if err != nil {
			return
		}
		for _, e := range envs {
			req, ok := e.Msg.(Request)
			if !ok {
				s.logf("server %s: client %s sent %T, want Request", s.cfg.ID, link.Remote, e.Msg)
				return
			}
			c.start(req)
		}
	}
}

// close ends the connection once every operation it started is answered
// (or dropped with a broken connection).
func (c *clientConn) close() {
	for range c.made {
		<-c.free
	}
	c.conn.Close()
	close(c.wake)
	c.s.connMu.Lock()
	delete(c.s.conns, c)
	c.s.connMu.Unlock()
}

// slot takes a free slot, making one while fewer than maxClientInflight
// exist, and otherwise waits for an answer to be written.
func (c *clientConn) slot() *opSlot {
	select {
	case sl := <-c.free:
		return sl
	default:
	}
	if c.made == maxClientInflight {
		return <-c.free
	}
	c.made++
	sl := &opSlot{c: c}
	sl.guarded, sl.exec = sl.runGuarded, sl.run
	sl.quorumPut, sl.quorumGet = sl.putDone, sl.getDone
	sl.sessDone = sl.sessionDone
	sl.deliver, sl.dropped = sl.answerHeld, sl.answerDropped
	c.mu.Lock()
	c.slots = append(c.slots, sl)
	c.mu.Unlock()
	return sl
}

// start begins one operation without waiting for it.
func (c *clientConn) start(req Request) {
	s := c.s
	sl := c.slot()
	sl.req, sl.start = req, time.Now()
	o, known := ops[req.Op]
	if !known {
		o.counter = "server.requests.unknown"
	}
	s.statMu.Lock()
	s.reqCount.Inc(o.counter)
	s.statMu.Unlock()
	if o.admin != nil {
		sl.state.Store(slotAdmin)
		// Passed, not captured: capturing a Request moves every one to the heap.
		go func(req Request, admin func(*Server, Request) Response) { c.answer(sl, admin(s, req)) }(req, o.admin)
		return
	}
	sl.state.Store(slotOp)
	if !known {
		c.answer(sl, Response{Err: fmt.Sprintf("unknown op %q", req.Op)})
		return
	}
	if req.SLA > uint8(geo.Eventual) {
		c.answer(sl, Response{Err: fmt.Sprintf("unknown SLA tier %d", req.SLA)})
		return
	}
	shard := -1
	if s.qnode != nil {
		// One call on the key's shard loop, where the node plans the
		// operation and either coordinates it or forwards it to the
		// coordinator. The context is the client's.
		var err error
		if sl.ctx, err = decodeContext(req.Context); err != nil {
			c.answer(sl, Response{Err: err.Error()})
			return
		}
		shard = s.qnode.Router().Shard(req.Key)
	}
	if !s.tcp.InvokeShard(s.cfg.ID, shard, sl.guarded) {
		c.answer(sl, Response{Err: "node stopped"})
	}
}

// runGuarded runs the operation as one invocation of the storage node: on
// a durable node through the ack barrier, like a message.
func (sl *opSlot) runGuarded(env transport.Env) {
	if b := sl.c.s.ackB; b != nil {
		b.Call(env, sl.exec)
	} else {
		sl.exec(env)
	}
}

// run executes the operation on its loop. Its answer may come before run
// returns, and the slot may then be reused at once: nothing reads the
// slot after the operation is handed to the protocol.
func (sl *opSlot) run(env transport.Env) {
	s, req := sl.c.s, sl.req
	switch s.cfg.Model {
	case "gossip":
		resp := Response{OK: true}
		switch req.Op {
		case "put":
			s.gossipN.Put(env, req.Key, req.Value)
		case "del":
			s.gossipN.Delete(env, req.Key)
		case "get":
			resp.Value, resp.Found = s.gossipN.Get(req.Key)
		}
		sl.finish(env, resp)
	case "quorum":
		switch req.Op {
		case "put":
			s.qnode.CoordinatePut(env, req.Key, req.Value, sl.ctx, sl.quorumPut)
		case "del":
			s.qnode.CoordinateDelete(env, req.Key, sl.ctx, sl.quorumPut)
		case "get":
			s.qnode.CoordinateGet(env, req.Key, geo.Kind(req.SLA), req.BoundMs, sl.quorumGet)
		}
	case "session":
		// Served in place under the floor the request's token sets.
		var tok session.Token
		if req.Token != nil {
			tok = *req.Token
		}
		switch req.Op {
		case "put", "del":
			s.sessN.Write(env, req.Key, req.Value, req.Op == "del", tok, sl.sessDone)
		case "get":
			s.sessN.Read(env, req.Key, tok, sl.sessDone)
		}
	}
}

// putDone answers a quorum put or delete with the context that covers
// it, whether it failed or not.
func (sl *opSlot) putDone(env transport.Env, r quorum.PutResult) {
	resp := Response{OK: true}
	if r.Err != nil {
		resp = failed(r.Err)
	}
	resp.Zone, resp.Context = sl.c.s.cfg.Zone, sl.context(r.Context)
	sl.finish(env, resp)
}

// getDone answers a quorum get at the tier delivered, with the context
// of what it read.
func (sl *opSlot) getDone(env transport.Env, r quorum.GetResult) {
	resp := Response{OK: true, Found: len(r.Values) > 0, Values: r.Values, Tier: uint8(r.Tier), StaleMs: r.StaleMs}
	if r.Err != nil {
		resp = failed(r.Err)
	} else {
		resp.Context = sl.context(r.Context)
		if len(r.Values) > 0 {
			resp.Value = r.Values[0]
		}
	}
	resp.Zone = sl.c.s.cfg.Zone
	sl.finish(env, resp)
}

// failed is the answer to a quorum operation that failed with err: NotOwner for a refusal.
func failed(err error) Response {
	if no, ok := err.(*quorum.NotOwnerError); ok {
		return Response{Err: no.Error(), NotOwner: true, Epoch: no.Epoch, State: no.State}
	}
	return Response{Err: err.Error()}
}

// context encodes v into the slot's context buffer, for the answer: nil
// when v is empty.
func (sl *opSlot) context(v clock.Vector) []byte {
	if len(v) == 0 {
		return nil
	}
	sl.ctxBuf = wire.AppendVector(sl.ctxBuf[:0], v)
	return sl.ctxBuf
}

// sessionDone answers a session operation with the session's token,
// raised by what the operation did or, if it timed out, as it came.
func (sl *opSlot) sessionDone(env transport.Env, a session.Answer) {
	resp := Response{OK: true, Value: a.Value, Found: a.Found, Token: &a.Token}
	if a.TimedOut {
		op := "write"
		if sl.req.Op == "get" {
			op = "read"
		}
		resp = Response{Err: "session " + op + " timed out", Token: &a.Token}
	}
	sl.finish(env, resp)
}

// finish answers the operation from the invocation env it completed in.
// Under the ack barrier the answer
// waits like a message sent in its place, for the records the invocation
// journaled; if the barrier drops it, the client learns the write is not
// durable.
func (sl *opSlot) finish(env transport.Env, resp Response) {
	if d, ok := env.(*deferEnv); ok {
		sl.resp = resp
		d.Defer(sl.deliver, sl.dropped)
		return
	}
	sl.c.answer(sl, resp)
}

func (sl *opSlot) answerHeld()    { sl.c.answer(sl, sl.resp) }
func (sl *opSlot) answerDropped() { sl.c.answer(sl, Response{Err: errNotDurable}) }

// answer sends the answer of sl's operation, unless it was answered
// already (Server.Close answers what the stopped node never will).
func (c *clientConn) answer(sl *opSlot, resp Response) {
	if sl.state.Swap(slotIdle) != slotIdle {
		c.send(sl, resp)
	}
}

// send counts the finished request and queues its answer. Unless a
// writer is at work, it then writes the queue itself; a writer at work
// writes it next. The slot comes back once the answer is written.
func (c *clientConn) send(sl *opSlot, resp Response) {
	s := c.s
	s.statMu.Lock()
	if !resp.OK {
		s.reqCount.Inc("server.request_errors")
	}
	s.reqLat.Observe(time.Since(sl.start))
	s.statMu.Unlock()
	resp.Seq, resp.Node = sl.req.Seq, s.cfg.ID
	sl.req, sl.ctx, sl.resp = Request{}, nil, resp // the request's frame is not pinned

	c.mu.Lock()
	if c.broken {
		c.mu.Unlock()
		sl.resp = Response{}
		c.free <- sl
		return
	}
	c.queued = append(c.queued, sl)
	if c.writing {
		c.mu.Unlock()
		return
	}
	c.writing = true
	for len(c.queued) > 0 {
		c.take()
		c.mu.Unlock()
		c.frame()
		if c.tryWrite(); c.werr != nil {
			c.fail(c.werr)
			return
		}
		if c.wn < len(c.wbuf) {
			c.wake <- struct{}{}
			return
		}
		c.mu.Lock()
		c.written()
	}
	c.writing = false
	c.mu.Unlock()
}

// take hands the queued answers to the writer. c.mu held.
func (c *clientConn) take() {
	c.wheld, c.queued, c.spare = c.queued, c.spare[:0], nil
}

// frame encodes the writer's batch into its buffer. An answer too large
// for a frame is answered with the error instead.
func (c *clientConn) frame() {
	c.wbuf, c.wn = c.wbuf[:0], 0
	for _, sl := range c.wheld {
		var err error
		if c.wbuf, err = transport.AppendMessage(c.wbuf, sl.resp); err != nil {
			c.wbuf, _ = transport.AppendMessage(c.wbuf, Response{Seq: sl.resp.Seq, Node: sl.resp.Node, Err: err.Error()})
		}
	}
}

// written frees the slots of the batch just written. c.mu held.
func (c *clientConn) written() {
	for _, sl := range c.wheld {
		sl.resp = Response{}
		c.free <- sl
	}
	clear(c.wheld)
	c.spare, c.wheld = c.wheld[:0], nil
}

// tryWrite makes one non-blocking write of the writer's buffer; wn and
// werr report what it did.
func (c *clientConn) tryWrite() {
	c.wn, c.werr = 0, nil
	if c.raw == nil {
		return
	}
	if err := c.raw.Write(c.rawFunc); err != nil {
		c.werr = err
	}
}

// rawWrite is one write(2), which never waits: a full socket buffer
// writes nothing and leaves the rest to the writer goroutine.
func (c *clientConn) rawWrite(fd uintptr) bool {
	n, err := syscall.Write(int(fd), c.wbuf)
	switch err {
	case nil:
		c.wn = n
	case syscall.EAGAIN, syscall.EINTR:
	default:
		c.werr = err
	}
	return true
}

// writer finishes the writes the non-blocking attempt could not, then
// frames and writes what was answered meanwhile, blocking as long as the
// client takes to read (up to writeTimeout a write).
func (c *clientConn) writer() {
	for range c.wake {
		for {
			c.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			if _, err := c.conn.Write(c.wbuf[c.wn:]); err != nil {
				c.fail(err)
				break
			}
			c.mu.Lock()
			c.written()
			if len(c.queued) == 0 {
				// No stale deadline may fail the next non-blocking attempt.
				c.conn.SetWriteDeadline(time.Time{})
				c.writing = false
				c.mu.Unlock()
				break
			}
			c.take()
			c.mu.Unlock()
			c.frame()
		}
	}
}

// fail ends a connection whose write failed: the reader stops, and every
// answer not yet written is dropped with its slot freed.
func (c *clientConn) fail(err error) {
	c.s.logf("server %s: client %s write: %v", c.s.cfg.ID, c.link.Remote, err)
	c.conn.Close()
	c.mu.Lock()
	c.broken, c.writing = true, false
	for _, sl := range append(c.wheld, c.queued...) {
		sl.resp = Response{}
		c.free <- sl
	}
	c.wheld, c.queued = nil, nil
	c.mu.Unlock()
}

// abandon answers every operation still in flight as stopped. Server.Close
// calls it once the loops and the barrier are stopped, when no operation
// can complete any more; admin operations answer on their own.
func (c *clientConn) abandon() {
	c.mu.Lock()
	slots := append([]*opSlot(nil), c.slots...)
	c.mu.Unlock()
	for _, sl := range slots {
		if sl.state.CompareAndSwap(slotOp, slotIdle) {
			c.send(sl, Response{Err: "node stopped"})
		}
	}
}
