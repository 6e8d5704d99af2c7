package transport

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/wire"
)

// echoMsg / echoReply are the test protocol, on wire ids 3 and 4 of the
// transport's own range.
type echoMsg struct {
	N int
}
type echoReply struct {
	N int
}

func (echoMsg) WireID() uint16                   { return 32 }
func (m echoMsg) AppendBinary(dst []byte) []byte { return wire.AppendVarint(dst, int64(m.N)) }

func (echoReply) WireID() uint16                   { return 33 }
func (m echoReply) AppendBinary(dst []byte) []byte { return wire.AppendVarint(dst, int64(m.N)) }

func init() {
	RegisterBinary(32, func(r *wire.Reader) Message { return echoMsg{N: int(r.Varint())} })
	RegisterBinary(33, func(r *wire.Reader) Message { return echoReply{N: int(r.Varint())} })
}

// echoNode replies to every echoMsg and records replies it receives.
type echoNode struct {
	mu       sync.Mutex
	got      []int
	starts   int
	timerTag any
}

func (e *echoNode) OnStart(env Env) {
	e.mu.Lock()
	e.starts++
	e.mu.Unlock()
}

func (e *echoNode) OnMessage(env Env, from string, msg Message) {
	switch m := msg.(type) {
	case echoMsg:
		env.Send(from, echoReply{N: m.N})
	case echoReply:
		e.mu.Lock()
		e.got = append(e.got, m.N)
		e.mu.Unlock()
	}
}

func (e *echoNode) OnTimer(env Env, tag any) {
	e.mu.Lock()
	e.timerTag = tag
	e.mu.Unlock()
}

func (e *echoNode) received() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]int(nil), e.got...)
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestLoopbackEchoAndOrdering(t *testing.T) {
	l := NewLoopback(LoopbackConfig{Seed: 1})
	defer l.Close()
	a, b := &echoNode{}, &echoNode{}
	l.AddNode("a", a)
	l.AddNode("b", b)

	const n = 100
	for i := 0; i < n; i++ {
		i := i
		l.Invoke("a", func(env Env) { env.Send("b", echoMsg{N: i}) })
	}
	waitFor(t, 2*time.Second, func() bool { return len(a.received()) == n }, "all echo replies")
	got := a.received()
	for i, v := range got {
		if v != i {
			t.Fatalf("reply %d = %d; per-pair ordering violated", i, v)
		}
	}
}

func TestLoopbackPartitionAndHeal(t *testing.T) {
	l := NewLoopback(LoopbackConfig{Seed: 2})
	defer l.Close()
	a, b := &echoNode{}, &echoNode{}
	l.AddNode("a", a)
	l.AddNode("b", b)

	l.Partition([]string{"a"}, []string{"b"})
	l.Invoke("a", func(env Env) { env.Send("b", echoMsg{N: 1}) })
	time.Sleep(50 * time.Millisecond)
	if got := a.received(); len(got) != 0 {
		t.Fatalf("received %v across a partition", got)
	}
	l.Heal()
	l.Invoke("a", func(env Env) { env.Send("b", echoMsg{N: 2}) })
	waitFor(t, time.Second, func() bool { return len(a.received()) == 1 }, "reply after heal")
}

func TestLoopbackCrashRestart(t *testing.T) {
	l := NewLoopback(LoopbackConfig{Seed: 3})
	defer l.Close()
	a, b := &echoNode{}, &echoNode{}
	l.AddNode("a", a)
	l.AddNode("b", b)

	l.Crash("b")
	l.Invoke("a", func(env Env) { env.Send("b", echoMsg{N: 1}) })
	time.Sleep(30 * time.Millisecond)
	if got := a.received(); len(got) != 0 {
		t.Fatalf("crashed node replied: %v", got)
	}
	l.Restart("b")
	waitFor(t, time.Second, func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.starts == 2
	}, "OnStart after restart")
	l.Invoke("a", func(env Env) { env.Send("b", echoMsg{N: 2}) })
	waitFor(t, time.Second, func() bool { return len(a.received()) == 1 }, "reply after restart")
}

func TestTimersFireAndCancel(t *testing.T) {
	l := NewLoopback(LoopbackConfig{Seed: 4})
	defer l.Close()
	a := &echoNode{}
	l.AddNode("a", a)

	l.Invoke("a", func(env Env) { env.SetTimer(10*time.Millisecond, "fired") })
	waitFor(t, time.Second, func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.timerTag == "fired"
	}, "timer to fire")

	var id TimerID
	l.Invoke("a", func(env Env) { id = env.SetTimer(20*time.Millisecond, "cancelled") })
	l.Invoke("a", func(env Env) { env.Cancel(id) })
	time.Sleep(60 * time.Millisecond)
	a.mu.Lock()
	tag := a.timerTag
	a.mu.Unlock()
	if tag == "cancelled" {
		t.Fatal("cancelled timer fired")
	}
}

// startTCPPair boots two single-node TCP runtimes wired to each other.
func startTCPPair(t *testing.T, dir *resilience.Directory, policy *resilience.Policy) (ta, tb *TCP, a, b *echoNode) {
	t.Helper()
	// Bind ephemeral listeners first so each side knows the other's addr.
	var err error
	ta, err = NewTCP(TCPConfig{LocalID: "a", Listen: "127.0.0.1:0", Policy: policy, Directory: dir, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tb, err = NewTCP(TCPConfig{LocalID: "b", Listen: "127.0.0.1:0", Policy: policy, Directory: dir, Seed: 2})
	if err != nil {
		ta.Close()
		t.Fatal(err)
	}
	peers := map[string]string{"a": ta.Addr(), "b": tb.Addr()}
	ta.SetPeers(peers)
	tb.SetPeers(peers)
	a, b = &echoNode{}, &echoNode{}
	ta.AddNode("a", a)
	tb.AddNode("b", b)
	t.Cleanup(func() { ta.Close(); tb.Close() })
	return
}

func TestTCPEchoAndOrdering(t *testing.T) {
	ta, _, a, _ := startTCPPair(t, nil, nil)
	const n = 200
	for i := 0; i < n; i++ {
		i := i
		ta.Invoke("a", func(env Env) { env.Send("b", echoMsg{N: i}) })
	}
	waitFor(t, 5*time.Second, func() bool { return len(a.received()) == n }, "all TCP echo replies")
	for i, v := range a.received() {
		if v != i {
			t.Fatalf("reply %d = %d; per-peer FIFO violated over TCP", i, v)
		}
	}
	st := ta.Stats()
	if st.FramesSent == 0 || st.BytesSent == 0 {
		t.Fatalf("stats not accounting frames: %+v", st)
	}
}

// A TCP transport hosts its own node and no other: a frame names no
// addresses, so a second node could never be reached.
func TestTCPHostsOnlyItsLocalID(t *testing.T) {
	ta, _, _, _ := startTCPPair(t, nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("AddNode of a second node did not panic")
		}
	}()
	ta.AddNode("a#gw", &echoNode{})
}

func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	policy := &resilience.Policy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}
	ta, tb, a, _ := startTCPPair(t, nil, policy)

	ta.Invoke("a", func(env Env) { env.Send("b", echoMsg{N: 1}) })
	waitFor(t, 2*time.Second, func() bool { return len(a.received()) == 1 }, "first reply")

	// Kill b's whole runtime and bring a new one up on the same address.
	addr := tb.Addr()
	tb.Close()
	time.Sleep(50 * time.Millisecond)
	tb2, err := NewTCP(TCPConfig{LocalID: "b", Listen: addr, Policy: policy, Seed: 3})
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer tb2.Close()
	tb2.SetPeers(map[string]string{"a": ta.Addr(), "b": addr})
	tb2.AddNode("b", &echoNode{})

	// The link redials with backoff; sends during the outage may drop
	// (the transport is at-most-once) so keep sending until one lands.
	waitFor(t, 10*time.Second, func() bool {
		ta.Invoke("a", func(env Env) { env.Send("b", echoMsg{N: 2}) })
		return len(a.received()) >= 2
	}, "reply after peer restart")
}

func TestTCPFeedsFailureDetector(t *testing.T) {
	policy := &resilience.Policy{HeartbeatInterval: 20 * time.Millisecond}
	dir := resilience.NewDirectory(policy)
	ta, tb, _, _ := startTCPPair(t, dir, policy)

	// Heartbeats flow both ways; each side should observe the other.
	waitFor(t, 5*time.Second, func() bool {
		return dir.Phi("a", "b", ta.Now()) >= 0 && !dir.Suspects("a", "b", ta.Now()) &&
			ta.RTTQuantile("b", 0.5) > 0
	}, "detector fed by heartbeats and RTT measured")

	// Silence b: suspicion must accrue on a's side.
	tb.Close()
	waitFor(t, 5*time.Second, func() bool {
		return dir.Suspects("a", "b", ta.Now())
	}, "phi to accrue after peer death")
}

func TestFrameRoundTripAndLimit(t *testing.T) {
	e := Envelope{From: "x", To: "y", Msg: echoMsg{N: 42}}
	b, err := AppendFrame(nil, e)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := DecodeFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Fatalf("consumed %d of %d bytes", n, len(b))
	}
	if got.From != "" || got.To != "" || got.Msg.(echoMsg).N != 42 { // no frame carries an address

		t.Fatalf("round trip mismatch: %+v", got)
	}

	// Frames above the size cap must be rejected on both paths.
	huge := Envelope{From: "x", To: "y", Msg: bigMsg{B: make([]byte, MaxFrameSize+1)}}
	if _, err := AppendFrame(nil, huge); err == nil {
		t.Fatal("oversized frame encoded")
	}
}

// bigMsg carries an arbitrary payload, on wire id 5.
type bigMsg struct{ B []byte }

func (bigMsg) WireID() uint16                   { return 34 }
func (m bigMsg) AppendBinary(dst []byte) []byte { return wire.AppendBytes(dst, m.B) }

func init() {
	RegisterBinary(34, func(r *wire.Reader) Message { return bigMsg{B: r.Bytes()} })
}

func TestRuntimeDuplicateNodePanics(t *testing.T) {
	r := NewRuntime(0)
	defer r.Close()
	r.AddNode("x", &echoNode{})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddNode did not panic")
		}
	}()
	r.AddNode("x", &echoNode{})
}

func TestInvokeOnUnknownNode(t *testing.T) {
	r := NewRuntime(0)
	defer r.Close()
	if r.Invoke("ghost", func(Env) {}) {
		t.Fatal("Invoke on unknown node returned true")
	}
}

func TestLoopbackManyNodesConcurrentTraffic(t *testing.T) {
	l := NewLoopback(LoopbackConfig{Seed: 9, MinLatency: time.Millisecond, MaxLatency: 3 * time.Millisecond})
	defer l.Close()
	const nodes = 8
	ns := make([]*echoNode, nodes)
	for i := range ns {
		ns[i] = &echoNode{}
		l.AddNode(fmt.Sprintf("n%d", i), ns[i])
	}
	const per = 25
	for i := 0; i < nodes; i++ {
		for j := 0; j < per; j++ {
			src, dst, k := i, (i+1+j%(nodes-1))%nodes, j
			l.Invoke(fmt.Sprintf("n%d", src), func(env Env) {
				env.Send(fmt.Sprintf("n%d", dst), echoMsg{N: k})
			})
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		total := 0
		for _, n := range ns {
			total += len(n.received())
		}
		return total == nodes*per
	}, "all cross-node replies")
}

// With no latency configured the delay hook must return zero so
// delivery stays direct and per-pair ordering is untouched — the
// conformance suite's seeds depend on it.
func TestLoopbackNoLatencyStaysOrdered(t *testing.T) {
	l := NewLoopback(LoopbackConfig{Seed: 6})
	defer l.Close()
	if d := l.linkDelay("a", "b"); d != 0 {
		t.Fatalf("unconfigured linkDelay = %v, want 0", d)
	}
	a, b := &echoNode{}, &echoNode{}
	l.AddNode("a", a)
	l.AddNode("b", b)
	const n = 200
	for i := 0; i < n; i++ {
		i := i
		l.Invoke("a", func(env Env) { env.Send("b", echoMsg{N: i}) })
	}
	waitFor(t, 2*time.Second, func() bool { return len(a.received()) == n }, "all replies")
	for i, v := range a.received() {
		if v != i {
			t.Fatalf("reply %d = %d; ordering violated with idle delay hook", i, v)
		}
	}
}

// latencies records how long each echoMsg took to reach it: the sender
// puts the send time in N.
type latencies struct {
	mu  sync.Mutex
	got []time.Duration
}

func (l *latencies) OnStart(Env)      {}
func (l *latencies) OnTimer(Env, any) {}
func (l *latencies) OnMessage(env Env, from string, msg Message) {
	if m, ok := msg.(echoMsg); ok {
		l.mu.Lock()
		l.got = append(l.got, time.Since(time.Unix(0, int64(m.N))))
		l.mu.Unlock()
	}
}

func (l *latencies) take() []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	got := l.got
	l.got = nil
	return got
}

// A link delay is latency, not bandwidth: each message arrives about d
// after it is sent, however many were sent just before it. One message
// goes alone and nine go back to back just after it, while it waits out
// its delay. A writer that slept d before each frame held the nine for
// the rest of the first one's d and then a d of their own, nearly 2d.
func TestLinkDelayIsLatencyNotBandwidth(t *testing.T) {
	const d = 20 * time.Millisecond
	ta, err := NewTCP(TCPConfig{LocalID: "a", Listen: "127.0.0.1:0", Seed: 1,
		LinkDelay: func(string) time.Duration { return d }})
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	tb, err := NewTCP(TCPConfig{LocalID: "b", Listen: "127.0.0.1:0", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	ta.AddNode("a", &echoNode{})
	b := &latencies{}
	tb.AddNode("b", b)
	ta.SetPeers(map[string]string{"b": tb.Addr()})
	send := func(n int) {
		ta.Invoke("a", func(env Env) {
			for range n {
				env.Send("b", echoMsg{N: int(time.Now().UnixNano())})
			}
		})
	}
	var got []time.Duration
	arrived := func(n int) func() bool {
		return func() bool { got = append(got, b.take()...); return len(got) == n }
	}

	// The link is up once a first message has crossed it.
	send(1)
	waitFor(t, 5*time.Second, arrived(1), "the first message")
	got = nil

	send(1)
	time.Sleep(d / 20)
	send(9)
	waitFor(t, 5*time.Second, arrived(10), "ten messages")
	for i, lat := range got {
		if lat < d || lat > d*3/2 {
			t.Errorf("message %d arrived %v after it was sent, want within [%v, %v]", i, lat, d, d*3/2)
		}
	}
}

// The accept loop reads the hello and nothing behind it: a dialer may
// write its hello and its first frames in one write, and every frame
// still reaches its node.
func TestHelloAndFirstFramesInOneWrite(t *testing.T) {
	_, tb, a, _ := startTCPPair(t, nil, nil)
	conn, err := net.Dial("tcp", tb.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf, err := AppendFrame(nil, Envelope{Msg: hello{Kind: "peer", ID: "a", To: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 3; n++ {
		if buf, err = AppendFrame(buf, Envelope{Msg: echoMsg{N: n}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return len(a.received()) == 3 }, "the echo of every frame written with the hello")
	if got := a.received(); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("echoes %v, want [1 2 3]", got)
	}
}

func lens(ws [][]Envelope) (n []int) {
	for _, w := range ws {
		n = append(n, len(w))
	}
	return n
}

// writes records the size of every write a peer writer makes.
type writes struct {
	net.Conn
	got [][]byte
}

func (w *writes) Write(b []byte) (int, error) {
	w.got = append(w.got, append([]byte(nil), b...))
	return len(b), nil
}

func (w *writes) SetWriteDeadline(time.Time) error { return nil }

// The writer frames what it took from the queue into one write. An
// envelope too large to frame is dropped and counted, and the envelopes
// around it still ship; frames that together would pass MaxFrameSize go
// out in two writes, the second starting with the frame that passed it.
func TestWriterDropsOnlyTheEnvelopeThatFailsToEncode(t *testing.T) {
	tcp := &TCP{Runtime: NewRuntime(1), policy: (*resilience.Policy)(nil).Normalized()}
	p := &tcpPeer{id: "b", t: tcp}
	half := bigMsg{B: make([]byte, MaxFrameSize/2)}
	msgs := []Message{echoMsg{N: 1}, bigMsg{B: make([]byte, MaxFrameSize)}, echoMsg{N: 2}, half, half, echoMsg{N: 3}}
	envs := make([]Envelope, len(msgs)) // each as the peer b reads it
	for i, m := range msgs {
		envs[i] = Envelope{From: "a", To: "b", Msg: m}
	}
	conn := &writes{}
	if _, err := p.writeBatch(conn, nil, msgs); err != nil {
		t.Fatal(err)
	}
	var got [][]Envelope
	for _, w := range conn.got {
		if len(w) > MaxFrameSize {
			t.Errorf("a write of %d bytes, over MaxFrameSize", len(w))
		}
		var read []Envelope
		for r := bufio.NewReader(bytes.NewReader(w)); ; {
			var err error
			if read, _, err = (Link{Local: "b", Remote: "a"}).ReadStream(r, read); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		got = append(got, read)
	}
	want := [][]Envelope{{envs[0], envs[2], envs[3]}, {envs[4], envs[5]}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("writes carried %v envelopes; want %v", lens(got), lens(want))
	}
	st := tcp.Stats()
	if st.MessagesDropped != 1 || st.FramesSent != 2 || st.EnvelopesSent != 5 {
		t.Fatalf("stats %+v, want 1 dropped and 5 envelopes in 2 writes", st)
	}
}
