package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/quorum"
	"repro/internal/session"
	"repro/internal/transport"
)

// Client speaks the client protocol to one node. It is safe for
// concurrent use and pipelines: every request carries a sequence
// number, a background reader demultiplexes responses by Seq, so N
// goroutines sharing one Client keep N requests on the wire at once
// instead of serializing on the round trip. A single goroutine using
// the Client degenerates to the classic one-request-deep case.
//
// The client carries the session token across operations — and, via
// Token/SetToken, across reconnects to different nodes — which is what
// keeps read-your-writes and the other session guarantees intact when
// the node it was talking to dies. It carries each key's quorum causal
// context the same way. The nodes keep neither.
type Client struct {
	conn net.Conn
	// Timeout bounds each round trip (default 10s).
	Timeout time.Duration

	wmu  sync.Mutex        // serializes request frames onto the connection
	wbuf []byte            // guarded by wmu: the request frame, reused
	ctx  map[string][]byte // guarded by wmu: each key's context, as its last answer carried it (see keep)

	mu      sync.Mutex    // guards the fields below
	token   session.Token // the join of every answer's token and SetToken's; never changed in place
	seq     uint64
	waiters map[uint64]chan Response
	err     error // sticky: the transport error that ended the connection
}

// Dial connects to a node's peer-link address and handshakes as a
// client. id names the client in handshakes (any unique string).
func Dial(addr, id string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("server: dial %s: %w", addr, err)
	}
	c := &Client{conn: conn, Timeout: 10 * time.Second, ctx: map[string][]byte{}, waiters: map[uint64]chan Response{}}
	c.conn.SetWriteDeadline(time.Now().Add(c.timeout()))
	if _, err := transport.WriteFrame(conn, transport.Envelope{Msg: transport.ClientHello(id)}); err != nil {
		conn.Close()
		return nil, err
	}
	go c.reader()
	return c, nil
}

// Close closes the connection. In-flight requests fail.
func (c *Client) Close() error { return c.conn.Close() }

// Token returns the client's current session token (zero for
// non-session models). Persist it and hand it to a future client with
// SetToken to continue the session elsewhere. Answers replace the
// client's token with a new one: the returned vectors are never written.
func (c *Client) Token() session.Token {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.token
}

// SetToken resumes a session: the token travels with every subsequent
// request, and sets the guarantee floor the serving node must reach.
// Answers to operations already in flight join into it.
func (c *Client) SetToken(t session.Token) {
	c.mu.Lock()
	c.token = t
	c.mu.Unlock()
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 10 * time.Second
}

// reader demultiplexes response frames to the waiting requests. It owns
// the receive side of the connection for the client's whole life.
func (c *Client) reader() {
	r := bufio.NewReaderSize(c.conn, transport.ReadBufferSize)
	var envs []transport.Envelope
	for {
		var err error
		envs, _, err = (transport.Link{}).ReadStream(r, envs[:0])
		if err != nil {
			c.fail(err)
			return
		}
		for _, e := range envs {
			resp, ok := e.Msg.(Response)
			if !ok {
				c.fail(fmt.Errorf("server: unexpected frame %T", e.Msg))
				return
			}
			c.mu.Lock()
			if resp.Token != nil {
				// A join: pipelined answers, in whatever order, never
				// lower the token, nor undo a SetToken.
				c.token = c.token.Join(*resp.Token)
			}
			ch := c.waiters[resp.Seq]
			delete(c.waiters, resp.Seq)
			c.mu.Unlock()
			if ch != nil {
				ch <- resp
			}
		}
	}
}

// fail records the terminal error, wakes every in-flight request, and
// returns the sticky error (the first one recorded).
func (c *Client) fail(err error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = fmt.Errorf("server: connection failed: %w", err)
	}
	for seq, ch := range c.waiters {
		delete(c.waiters, seq)
		close(ch)
	}
	return c.err
}

// write frames req into the reused buffer and writes it (see do for
// own). A frame that fails to encode writes nothing and fails only its
// request. A write that fails may have left part of the frame on the
// wire, and the server would read the next request as that frame's tail,
// so it ends the connection: the error turns sticky and every request in
// flight fails.
func (c *Client) write(req Request, own bool) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if own && req.Op != "get" {
		req.Context = c.ctx[req.Key]
	}
	var err error
	c.wbuf, err = transport.AppendMessage(c.wbuf[:0], req)
	if err != nil {
		return err
	}
	c.conn.SetWriteDeadline(time.Now().Add(c.timeout()))
	if _, err := c.conn.Write(c.wbuf); err != nil {
		err = c.fail(err)
		c.conn.Close()
		return err
	}
	return nil
}

// do runs one request/response exchange. Concurrent callers pipeline:
// the request goes out immediately and this goroutine parks until the
// reader delivers the response matching its sequence number. The
// waiter's channel comes from the reply pool and goes back once its
// answer is received (see replies). With own set, a put or delete
// carries the client's context for req.Key, and the answer's is kept.
func (c *Client) do(req Request, own bool) (Response, error) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return Response{}, err
	}
	ch := getReply()
	c.seq++
	req.Seq = c.seq
	if c.token.Read != nil || c.token.Write != nil {
		tok := c.token
		req.Token = &tok
	}
	c.waiters[req.Seq] = ch
	c.mu.Unlock()

	if err := c.write(req, own); err != nil {
		c.mu.Lock()
		delete(c.waiters, req.Seq)
		c.mu.Unlock()
		return Response{}, err
	}

	t := startTimer(c.timeout())
	defer stopTimer(t)
	select {
	case resp, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			return Response{}, err
		}
		putReply(ch)
		if own && (resp.OK || resp.Context != nil) {
			c.keep(req.Key, resp.Context)
		}
		if resp.Err != "" {
			if resp.NotOwner {
				return resp, &NotOwnerError{Node: resp.Node, Epoch: resp.Epoch, State: resp.State}
			}
			return resp, errors.New(resp.Err)
		}
		return resp, nil
	case <-t.C:
		c.mu.Lock()
		delete(c.waiters, req.Seq)
		c.mu.Unlock()
		return Response{}, fmt.Errorf("server: request timed out after %s", c.timeout())
	}
}

// keep makes an answer's context the client's for key: a successful
// answer's, and a failed put's, which covers the write. It is copied into
// the slice held for key, so once the key is held it allocates nothing;
// a model without contexts holds no key.
func (c *Client) keep(key string, ctx []byte) {
	c.wmu.Lock()
	if cur, ok := c.ctx[key]; ok || len(ctx) > 0 {
		c.ctx[key] = append(cur[:0], ctx...)
	}
	c.wmu.Unlock()
}

// Put writes key = value over what this client last read or wrote of
// key: it supersedes that, and stands beside what the client never saw.
func (c *Client) Put(key string, value []byte) error {
	_, err := c.do(Request{Op: "put", Key: key, Value: value}, true)
	return err
}

// PutCtx writes key = value over ctx, which GetCtx or PutCtx returned,
// perhaps to another client of another node, and returns the context
// that covers the write, even when it fails.
func (c *Client) PutCtx(key string, value, ctx []byte) ([]byte, error) {
	resp, err := c.do(Request{Op: "put", Key: key, Value: value, Context: ctx}, false)
	return resp.Context, err
}

// GetCtx is GetSiblings with the context for a PutCtx to write over.
func (c *Client) GetCtx(key string) ([][]byte, []byte, error) {
	resp, err := c.do(Request{Op: "get", Key: key}, false)
	return siblings(resp), resp.Context, err
}

// Get reads key. found is false when the key is absent (or deleted).
func (c *Client) Get(key string) (value []byte, found bool, err error) {
	resp, err := c.do(Request{Op: "get", Key: key}, true)
	if err != nil {
		return nil, false, err
	}
	return resp.Value, resp.Found, nil
}

// GetSLA reads key at an SLA tier (quorum model). delivered is the tier
// the server actually served — a bounded request escalates to strong
// when the serving node's measured cross-zone staleness exceeds the
// bound — and staleMs is that measurement at serve time (-1 while the
// node has no measurement yet).
func (c *Client) GetSLA(key string, tier geo.Tier) (value []byte, found bool, delivered geo.Kind, staleMs int64, err error) {
	resp, err := c.do(Request{Op: "get", Key: key, SLA: uint8(tier.Kind), BoundMs: tier.Bound.Milliseconds()}, true)
	if err != nil {
		return nil, false, geo.Strong, 0, err
	}
	return resp.Value, resp.Found, geo.Kind(resp.Tier), resp.StaleMs, nil
}

// GetSiblings reads key and returns every concurrent version the store
// holds (quorum model; other models return at most one value).
func (c *Client) GetSiblings(key string) ([][]byte, error) {
	resp, err := c.do(Request{Op: "get", Key: key}, true)
	return siblings(resp), err
}

func siblings(resp Response) [][]byte {
	if len(resp.Values) > 0 {
		return resp.Values
	}
	if resp.Found {
		return [][]byte{resp.Value}
	}
	return nil
}

// Delete removes key as this client has seen it. A client that holds no
// context for key reads it first, so the delete removes what it can see.
func (c *Client) Delete(key string) error {
	c.wmu.Lock()
	_, seen := c.ctx[key]
	c.wmu.Unlock()
	if !seen {
		if _, err := c.GetSiblings(key); err != nil {
			return err
		}
	}
	_, err := c.do(Request{Op: "del", Key: key}, true)
	return err
}

// Status fetches the node's status document: the Status, and the JSON
// it came as.
func (c *Client) Status() (Status, []byte, error) {
	resp, err := c.do(Request{Op: "status"}, false)
	if err != nil {
		return Status{}, nil, err
	}
	var st Status
	if err := json.Unmarshal(resp.Value, &st); err != nil {
		return Status{}, nil, fmt.Errorf("server: status payload: %w", err)
	}
	return st, resp.Value, nil
}

// NotOwnerError is the typed refusal a node returns once it no longer
// owns client traffic. Callers redirect to a node still in the membership
// (see Status.Members).
type NotOwnerError = quorum.NotOwnerError

// AddNode asks this node to coordinate a live join: admit id (listening
// on addr) into the membership and start streaming its arcs. Returns
// once every member has acked the new epoch; catch-up progress is
// observed via Status on the joiner.
func (c *Client) AddNode(id, addr string) error {
	return c.AddNodeZone(id, addr, "")
}

// AddNodeZone is AddNode with the joiner's zone declared, so the new
// epoch's ring keeps replica sets spread across zones.
func (c *Client) AddNodeZone(id, addr, zone string) error {
	_, err := c.do(Request{Op: "add-node", Key: id, Value: []byte(addr), Zone: zone}, false)
	return err
}

// Decommission starts this node's graceful exit: drain hints, stop
// minting, hand every owned arc to the survivors. Returns once the
// drain is underway; poll Status until State is "left" before
// stopping the process.
func (c *Client) Decommission() error {
	_, err := c.do(Request{Op: "decommission"}, false)
	return err
}

// replies recycles the one-value channels Client.do waits on. Each has
// one sender that sends at most once (the reader, which takes the waiter
// out of the map before sending), so a channel goes back only after its
// one value was received: it is then empty and nothing else holds it.
// After a time-out or a close it is dropped instead, since a late sender
// may still write into it.
var replies = sync.Pool{New: func() any { return make(chan Response, 1) }}

func getReply() chan Response { return replies.Get().(chan Response) }

func putReply(ch chan Response) { replies.Put(ch) }

// timers recycles the time-out timers of request waits: every request
// arms one and almost none fires, so time.After would allocate a timer
// and its channel per request only to drop them.
var timers sync.Pool

func startTimer(d time.Duration) *time.Timer {
	if t, ok := timers.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// stopTimer returns t to the pool if it is known stopped with an empty
// channel: Stop caught it before it fired, or its tick was taken here. A
// timer that fired and whose tick is not in the channel is dropped: either
// the wait consumed it, or (go.mod predates Go 1.23's synchronous timer
// channels) the runtime has marked it expired and not yet sent, and the
// tick would land in the pool and time out the next request at once.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
			return
		}
	}
	timers.Put(t)
}
