package transport

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/resilience"
)

// TCPConfig configures a TCP transport: one per process, hosting that
// process's node and linking to every peer process.
type TCPConfig struct {
	// LocalID is the one node this transport hosts (see TCP.AddNode). It
	// names this runtime in handshakes and as the failure-detector
	// observer.
	LocalID string
	// Listen is the peer-link listen address ("127.0.0.1:0" for an
	// ephemeral port; read the bound address back with Addr).
	Listen string
	// Peers maps node ids to peer listen addresses. An entry for
	// LocalID is ignored.
	Peers map[string]string
	// Policy supplies reconnect backoff, heartbeat pacing, and I/O
	// deadlines. Nil uses resilience.DefaultPolicy.
	Policy *resilience.Policy
	// Directory, when set, receives one observation per read from a peer
	// link (a read takes every frame that has arrived) — the phi-accrual
	// detector fed by real arrival times instead of the simulator's
	// OnDeliver hook. With it the transport's Env reports Heartbeats: its
	// heartbeats and the frames the protocols send are all the liveness
	// evidence a node needs.
	Directory *resilience.Directory
	// OnClientConn, when set, receives accepted connections whose
	// handshake declares Kind "client" (the server's client protocol
	// shares the peer port), with the link the hello named: Remote is
	// the client's id, Local the name the client gave this node. The
	// callback owns the connection.
	OnClientConn func(l Link, conn net.Conn)
	// Seed derives node and jitter randomness.
	Seed int64
	// Logf, when set, receives connection lifecycle diagnostics.
	Logf func(format string, args ...any)
	// LinkDelay, when set, returns the one-way latency of the link to
	// the named peer — cross-zone emulation for single-host multi-zone
	// clusters (`ecctl up --zones ... --xzone-delay`). Each message is
	// written once it has waited that long since it was sent, and
	// messages do not wait for each other, so the link pipelines like a
	// distant one rather than serializing like a slow one. Heartbeats
	// ride the same per-peer queue, so the measured RTTs reflect the
	// delay, which is what lets the status and metrics gauges show
	// realistic latency classes locally.
	LinkDelay func(peer string) time.Duration
}

// TCP is the real transport: a Runtime whose non-local sends travel as
// length-prefixed binary frames over pooled TCP connections, one ordered
// send queue per peer, with automatic reconnection under the resilience
// policy's jittered backoff, and a transport-level heartbeat on each link
// that has nothing else to carry (see tcpPeer.drain), so the failure
// detector hears every peer at least once per interval.
type TCP struct {
	*Runtime
	cfg    TCPConfig
	policy *resilience.Policy
	ln     net.Listener

	mu      sync.Mutex
	addrs   map[string]string // peer id -> listen addr (mutable via SetPeers)
	peers   map[string]*tcpPeer
	rtts    map[string]*resilience.Latency
	inbound map[net.Conn]bool // accepted peer conns, closed on shutdown
	closed  bool

	wg   sync.WaitGroup
	done chan struct{}
}

// outQueueLen bounds each peer's send queue. A full queue sheds the
// newest frame (the protocols all retry); blocking an actor loop on a
// dead peer's queue would be worse.
const outQueueLen = 4096

// NewTCP starts a TCP transport: binds the listener, spawns the accept
// loop, and prepares (lazy) outbound links to every configured peer.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	if cfg.LocalID == "" {
		return nil, errors.New("transport: TCPConfig.LocalID required")
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.Listen, err)
	}
	t := &TCP{
		Runtime: NewRuntime(cfg.Seed),
		cfg:     cfg,
		policy:  cfg.Policy.Normalized(),
		ln:      ln,
		addrs:   make(map[string]string, len(cfg.Peers)),
		peers:   make(map[string]*tcpPeer),
		rtts:    make(map[string]*resilience.Latency),
		inbound: make(map[net.Conn]bool),
		done:    make(chan struct{}),
	}
	for id, addr := range cfg.Peers {
		t.addrs[id] = addr
	}
	t.Runtime.forward = t.forward
	t.Runtime.heartbeats = cfg.Directory != nil
	t.wg.Add(1)
	go t.acceptLoop()
	t.connectAll()
	return t, nil
}

// connectAll eagerly establishes the outbound link to every known peer
// so transport heartbeats (and thus failure detection) run from boot,
// not from first traffic.
func (t *TCP) connectAll() {
	t.mu.Lock()
	peers := make(map[string]string, len(t.addrs))
	for id, addr := range t.addrs {
		if id != t.cfg.LocalID {
			peers[id] = addr
		}
	}
	t.mu.Unlock()
	for id, addr := range peers {
		t.peer(id, addr)
	}
}

// Addr returns the bound peer-link address.
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// SetPeers replaces the peer address map (used when addresses are only
// known after every node has bound its listener). Existing links keep
// their old address until they next reconnect.
func (t *TCP) SetPeers(peers map[string]string) {
	t.mu.Lock()
	t.addrs = make(map[string]string, len(peers))
	for id, addr := range peers {
		t.addrs[id] = addr
	}
	t.mu.Unlock()
	t.connectAll()
}

func (t *TCP) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

// AddNode hosts id, which must be LocalID: every frame on a link travels
// between the link's two ends, so a TCP transport hosts no node but its
// own. Any other id panics, as a duplicate id does.
func (t *TCP) AddNode(id string, h Handler) {
	if id != t.cfg.LocalID {
		panic(fmt.Sprintf("transport: a TCP transport hosts only %q, not %q", t.cfg.LocalID, id))
	}
	t.Runtime.AddNode(id, h)
}

// addrOf returns the listen address of peer id.
func (t *TCP) addrOf(id string) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	addr, ok := t.addrs[id]
	return addr, ok
}

// forward implements Runtime's non-local routing: enqueue on the peer's
// ordered send queue.
func (t *TCP) forward(from, to string, msg Message) bool {
	addr, ok := t.addrOf(to)
	if !ok || to == t.cfg.LocalID {
		return false
	}
	p := t.peer(to, addr)
	if p == nil {
		return false
	}
	if !p.send(msg) {
		t.stats.messagesDropped.Add(1)
	}
	return true // a full queue counts as dropped, not unroutable
}

// peer returns the live send queue for a peer runtime, creating it on
// first use.
func (t *TCP) peer(id, addr string) *tcpPeer {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	if p, ok := t.peers[id]; ok {
		return p
	}
	p := &tcpPeer{
		id:   id,
		addr: addr,
		t:    t,
		out:  make(chan queued, outQueueLen),
		rng:  rand.New(rand.NewSource(t.cfg.Seed ^ int64(idHash(id)) ^ 0x7c9)),
	}
	t.peers[id] = p
	// Seed the failure detector at link creation: silence accrues from
	// here, so a configured peer that never answers still becomes
	// suspect instead of scoring phi = 0 forever as "never seen".
	if t.cfg.Directory != nil {
		t.cfg.Directory.Observe(id, t.cfg.LocalID, t.Now())
	}
	t.wg.Add(1)
	go p.run()
	return p
}

// observe feeds the failure detector for peer.
func (t *TCP) observe(peer string) {
	if t.cfg.Directory != nil {
		t.cfg.Directory.Observe(peer, t.cfg.LocalID, t.Now())
	}
}

func (t *TCP) observeRTT(peer string, rtt time.Duration) {
	t.mu.Lock()
	l := t.rtts[peer]
	if l == nil {
		l = &resilience.Latency{}
		t.rtts[peer] = l
	}
	l.Observe(rtt)
	t.mu.Unlock()
}

// RTTQuantile returns the q-quantile of observed heartbeat round trips
// to peer (0 if none yet), for the status and /metrics latency gauges
// (ec_peer_rtt_seconds, ec_zone_rtt_seconds). Hedging does not read it:
// a quorum read hedges on its shard's answer delays.
func (t *TCP) RTTQuantile(peer string, q float64) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if l := t.rtts[peer]; l != nil {
		return l.Quantile(q)
	}
	return 0
}

// acceptLoop owns the listener: every inbound connection handshakes,
// then serves as a peer frame source or is handed to the client hook.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.done:
				return
			default:
			}
			t.logf("transport %s: accept: %v", t.cfg.LocalID, err)
			return
		}
		t.wg.Add(1)
		go t.handleConn(conn)
	}
}

func (t *TCP) handleConn(conn net.Conn) {
	defer t.wg.Done()
	conn.SetReadDeadline(time.Now().Add(t.handshakeTimeout()))
	e, _, err := ReadFrame(conn)
	if err != nil {
		conn.Close()
		return
	}
	h, ok := e.Msg.(hello)
	if !ok {
		t.logf("transport %s: conn %s: first frame %T, want hello", t.cfg.LocalID, conn.RemoteAddr(), e.Msg)
		conn.Close()
		return
	}
	// The dialer names itself and the node it dialed: the two ends of
	// every frame it writes after the hello.
	link := Link{Local: h.To, Remote: h.ID}
	switch h.Kind {
	case "client":
		if t.cfg.OnClientConn != nil {
			conn.SetReadDeadline(time.Time{})
			t.cfg.OnClientConn(link, conn)
			return
		}
		conn.Close()
	case "peer":
		t.servePeer(link, conn)
	default:
		conn.Close()
	}
}

// servePeer reads frames from an established inbound peer connection
// until it errors; the dialer side owns reconnection. The connection is
// registered so Close can unblock the read.
func (t *TCP) servePeer(link Link, conn net.Conn) {
	peerID := link.Remote
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return
	}
	t.inbound[conn] = true
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
		conn.Close()
	}()
	idle := t.idleTimeout()
	r := bufio.NewReaderSize(conn, ReadBufferSize)
	var envs []Envelope
	for {
		conn.SetReadDeadline(time.Now().Add(idle))
		var n int
		var err error
		envs, n, err = link.ReadStream(r, envs[:0])
		if err != nil {
			select {
			case <-t.done:
			default:
				t.logf("transport %s: peer %s read: %v", t.cfg.LocalID, peerID, err)
			}
			return
		}
		t.stats.framesReceived.Add(1)
		t.stats.envelopesReceived.Add(uint64(len(envs)))
		t.stats.bytesReceived.Add(uint64(n))
		t.observe(peerID)
		for _, e := range envs {
			t.dispatch(peerID, e)
		}
	}
}

// dispatch routes one received envelope: heartbeats feed the RTT
// machinery, everything else is delivered to the destination node.
func (t *TCP) dispatch(peerID string, e Envelope) {
	switch m := e.Msg.(type) {
	case heartbeat:
		if m.Echo {
			// Round trip complete on our clock.
			t.observeRTT(peerID, t.Now()-time.Duration(m.T))
		} else if addr, ok := t.addrOf(peerID); ok {
			// Echo through the ordered outbound queue; piggybacks as
			// liveness evidence for the other side too.
			if p := t.peer(peerID, addr); p != nil {
				p.send(heartbeat{T: m.T, Echo: true})
			}
		}
	default:
		t.deliver(e.From, e.To, e.Msg)
	}
}

func (t *TCP) handshakeTimeout() time.Duration {
	d := 2 * t.policy.RetryTimeout
	if d < time.Second {
		d = time.Second
	}
	return d
}

// idleTimeout is how long a peer connection may stay silent before the
// reader declares it dead: several heartbeat intervals, floored so slow
// CI machines don't flap.
func (t *TCP) idleTimeout() time.Duration {
	d := 20 * t.policy.HeartbeatInterval
	if d < 3*time.Second {
		d = 3 * time.Second
	}
	return d
}

// Close shuts the transport down: listener, peer links, node loops.
func (t *TCP) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	peers := make([]*tcpPeer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	conns := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	close(t.done)
	t.ln.Close()
	for _, p := range peers {
		p.close()
	}
	for _, c := range conns {
		c.Close()
	}
	t.Runtime.Close()
	t.wg.Wait()
}

// tcpPeer is one outbound link: an ordered send queue drained by a
// writer goroutine that dials lazily, heartbeats, and reconnects with
// jittered backoff.
type tcpPeer struct {
	id, addr string
	t        *TCP
	out      chan queued
	rng      *rand.Rand

	closeOnce sync.Once
	closed    chan struct{}
	initOnce  sync.Once
}

// queued is a message waiting in a peer's send queue, with when it was
// sent on the runtime's clock. It travels from this node to the peer, the
// two ends of the link, so it needs no addresses. Only a link delay reads
// the time, so send stamps it only under one: without, the send path
// reads no clock.
type queued struct {
	msg Message
	at  time.Duration
}

// send queues m for the writer without blocking; false means the queue
// is full and m is shed.
func (p *tcpPeer) send(m Message) bool {
	q := queued{msg: m}
	if p.t.cfg.LinkDelay != nil {
		q.at = p.t.Now()
	}
	select {
	case p.out <- q:
		return true
	default:
		return false
	}
}

func (p *tcpPeer) init() {
	p.initOnce.Do(func() { p.closed = make(chan struct{}) })
}

func (p *tcpPeer) close() {
	p.init()
	p.closeOnce.Do(func() { close(p.closed) })
}

// run is the peer writer loop: connect (with backoff), drain the queue,
// heartbeat, reconnect on error. Frame writes carry a deadline so a
// stalled peer cannot wedge the queue forever.
func (p *tcpPeer) run() {
	defer p.t.wg.Done()
	p.init()
	t := p.t
	greeting, _ := AppendMessage(nil, hello{Kind: "peer", ID: t.cfg.LocalID, To: p.id})
	attempt := 0
	for {
		select {
		case <-p.closed:
			return
		default:
		}
		conn, err := net.DialTimeout("tcp", p.addr, t.handshakeTimeout())
		if err == nil {
			if !p.sleep(p.delay()) { // the hello pays the link delay like any frame
				conn.Close()
				return
			}
			if err = p.write(conn, greeting, 1); err != nil {
				conn.Close()
			}
		}
		if err != nil {
			t.logf("transport %s: dial %s (%s): %v", t.cfg.LocalID, p.id, p.addr, err)
			attempt++
			if !p.sleep(t.policy.Backoff(attempt-1, p.rng)) {
				return
			}
			continue
		}
		if attempt > 0 {
			t.stats.reconnects.Add(1)
		}
		attempt = 0
		if !p.drain(conn) {
			conn.Close()
			return
		}
		conn.Close()
		attempt = 1
		if !p.sleep(t.policy.Backoff(0, p.rng)) {
			return
		}
	}
}

// maxBatch bounds how many queued messages the writer takes for one
// write; anything still queued goes in the next write one syscall
// later.
const maxBatch = 256

// rttSampleEvery is how many heartbeat intervals a busy link goes between
// heartbeats. Its frames already keep the receiver's detector fed; the
// one heartbeat in rttSampleEvery keeps the RTT gauges (RTTQuantile)
// tracking under load.
const rttSampleEvery = 10

// drain writes queued messages and heartbeats until the connection errors
// (false return means the peer is closing for good). A heartbeat goes at
// a tick of the heartbeat interval only if the writer took no queued
// message since the previous tick, or if the link has gone rttSampleEvery
// ticks without one: every frame that arrives, an echo included, is
// evidence to the receiver's detector, so an idle link pair carries one
// heartbeat and its echo per interval and a busy one almost none.
//
// Sends are batched: after blocking for the first envelope the loop
// greedily takes everything else already queued (up to maxBatch) and
// writes their frames in one write — one syscall and one wakeup on the
// receiver for a whole coordinator fan-out tick. An idle link writes one
// frame per write and pays nothing for batching.
//
// Under a link delay d the loop waits until the oldest envelope taken
// is d old, then writes every envelope taken that is d old; the rest
// stay for the next write. So each envelope pays d once, whatever was
// queued ahead of it.
func (p *tcpPeer) drain(conn net.Conn) bool {
	t := p.t
	hb := time.NewTicker(t.policy.HeartbeatInterval)
	defer hb.Stop()
	batch := make([]Message, 0, maxBatch) // taken from the queue, not yet written
	var sent []time.Duration              // each taken message's queued.at
	took, skipped := false, 0             // a message taken since the last tick; ticks since the last heartbeat
	take := func(q queued) {
		batch, sent = append(batch, q.msg), append(sent, q.at)
		took = true
	}
	tick := func() {
		if took && skipped < rttSampleEvery-1 {
			took, skipped = false, skipped+1
			return
		}
		now := t.Now()
		batch, sent = append(batch, heartbeat{T: int64(now)}), append(sent, now)
		took, skipped = false, 0
	}
	var buf []byte
	for {
		if len(batch) == 0 {
			select {
			case <-p.closed:
				return false
			case q := <-p.out:
				take(q)
			case <-hb.C:
				tick()
			}
		} else {
			select {
			case <-hb.C:
				tick()
			default:
			}
		}
		for len(batch) < maxBatch {
			select {
			case q := <-p.out:
				take(q)
			default:
				goto full
			}
		}
	full:
		if len(batch) == 0 {
			continue // a tick that sent no heartbeat
		}
		n := len(batch)
		if d := p.delay(); d > 0 {
			if !p.sleep(sent[0] + d - t.Now()) {
				return false
			}
			now := t.Now()
			for n = 1; n < len(batch) && sent[n]+d <= now; n++ {
			}
		}
		var err error
		buf, err = p.writeBatch(conn, buf, batch[:n])
		rest := copy(batch, batch[n:])
		clear(batch[rest:]) // written messages are not pinned
		batch, sent = batch[:rest], sent[:copy(sent, sent[n:])]
		if err != nil {
			t.logf("transport %s: write to %s: %v", t.cfg.LocalID, p.id, err)
			return true
		}
	}
}

// writeBatch frames msgs into buf and writes them, in one write unless
// the frames pass MaxFrameSize: then the frames before the one that
// passed it are written first. The returned buffer is buf possibly
// grown, for reuse. A message that fails to encode (no wire codec, or a
// frame over MaxFrameSize) is cut back out of the buffer, logged and
// counted as dropped (the protocols retry); its neighbours still ship.
func (p *tcpPeer) writeBatch(conn net.Conn, buf []byte, msgs []Message) ([]byte, error) {
	buf = buf[:0]
	framed := 0 // messages in buf
	for _, m := range msgs {
		mark := len(buf)
		var err error
		if buf, err = AppendFrame(buf, Envelope{Msg: m}); err != nil {
			p.t.logf("transport %s: encode for %s: %v", p.t.cfg.LocalID, p.id, err)
			p.t.stats.messagesDropped.Add(1)
			continue
		}
		if len(buf) > MaxFrameSize && mark > 0 {
			if err := p.write(conn, buf[:mark], framed); err != nil {
				return buf, err
			}
			buf, framed = buf[:copy(buf, buf[mark:])], 0
		}
		framed++
	}
	if framed == 0 {
		return buf, nil
	}
	return buf, p.write(conn, buf, framed)
}

// delay returns the configured link delay to the peer (zero without one).
func (p *tcpPeer) delay() time.Duration {
	if f := p.t.cfg.LinkDelay; f != nil {
		return f(p.id)
	}
	return 0
}

// write writes frames holding n envelopes in one write.
func (p *tcpPeer) write(conn net.Conn, frames []byte, n int) error {
	conn.SetWriteDeadline(time.Now().Add(p.t.policy.RetryTimeout * 2))
	wn, err := conn.Write(frames)
	if err == nil {
		p.t.stats.countSent(n, wn)
	}
	return err
}

// sleep waits d or until the peer closes; false means closing.
func (p *tcpPeer) sleep(d time.Duration) bool {
	select {
	case <-p.closed:
		return false
	case <-time.After(d):
		return true
	}
}
