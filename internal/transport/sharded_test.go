package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// shardedEcho routes msgs of the form "k<shard>:..." to their shard and
// everything else to the serial loop, recording which domain ran each.
type shardedEcho struct {
	Handler
	n    int
	mu   sync.Mutex
	seen map[string]int // msg -> domain (-1 serial)

	fastPrefix string
	fastCount  atomic.Int64
}

type noopHandler struct{}

func (noopHandler) OnStart(Env)                    {}
func (noopHandler) OnMessage(Env, string, Message) {}
func (noopHandler) OnTimer(Env, any)               {}

// FastHandle declines, so a test handler that embeds noopHandler and
// declares shards takes no fast path.
func (noopHandler) FastHandle(Env, string, Message) bool { return false }

func newShardedEcho(n int) *shardedEcho {
	return &shardedEcho{Handler: noopHandler{}, n: n, seen: make(map[string]int)}
}

func (h *shardedEcho) Shards() int { return h.n }

func (h *shardedEcho) ShardOf(msg Message) int {
	s, ok := msg.(string)
	if !ok || len(s) < 2 || s[0] != 'k' {
		return -1
	}
	return int(s[1] - '0')
}

func (h *shardedEcho) OnMessage(env Env, from string, msg Message) {
	domain := env.Domain() - 1 // the shard, as ShardOf numbers it
	h.mu.Lock()
	h.seen[msg.(string)] = domain
	h.mu.Unlock()
}

func (h *shardedEcho) FastHandle(env Env, from string, msg Message) bool {
	s, ok := msg.(string)
	if !ok || h.fastPrefix == "" || len(s) < len(h.fastPrefix) || s[:len(h.fastPrefix)] != h.fastPrefix {
		return false
	}
	h.fastCount.Add(1)
	env.Send(from, "fast-reply:"+s)
	return true
}

func (h *shardedEcho) wait(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		h.mu.Lock()
		got := len(h.seen)
		h.mu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d messages", n)
}

func TestShardedDispatchRoutesToDeclaredDomain(t *testing.T) {
	rt := NewRuntime(1)
	defer rt.Close()
	h := newShardedEcho(4)
	rt.AddNode("n", h)
	rt.AddNode("src", noopHandler{})

	var want []string
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			want = append(want, fmt.Sprintf("k%d:m%d", i, j))
		}
	}
	want = append(want, "control-a", "control-b")
	for _, m := range want {
		rt.Post("src", "n", m)
	}
	h.wait(t, len(want))

	h.mu.Lock()
	defer h.mu.Unlock()
	for _, m := range want {
		domain, ok := h.seen[m]
		if !ok {
			t.Fatalf("message %q never delivered", m)
		}
		wantDomain := -1
		if m[0] == 'k' {
			wantDomain = int(m[1] - '0')
		}
		if domain != wantDomain {
			t.Errorf("message %q ran on domain %d, want %d", m, domain, wantDomain)
		}
	}
}

func TestShardedDispatchPreservesPerShardOrder(t *testing.T) {
	rt := NewRuntime(1)
	defer rt.Close()
	var mu sync.Mutex
	perShard := make(map[int][]int)
	h := &orderedSharded{on: func(shard, i int) {
		mu.Lock()
		perShard[shard] = append(perShard[shard], i)
		mu.Unlock()
	}}
	rt.AddNode("n", h)
	rt.AddNode("src", noopHandler{})

	const per = 200
	for i := 0; i < per; i++ {
		for s := 0; s < 4; s++ {
			rt.Post("src", "n", [2]int{s, i})
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		total := 0
		for _, xs := range perShard {
			total += len(xs)
		}
		mu.Unlock()
		if total == 4*per {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out: got %d of %d", total, 4*per)
		}
		time.Sleep(time.Millisecond)
	}
	for s, xs := range perShard {
		for i, x := range xs {
			if x != i {
				t.Fatalf("shard %d: position %d holds %d — per-shard FIFO violated", s, i, x)
			}
		}
	}
}

type orderedSharded struct {
	noopHandler
	on func(shard, i int)
}

func (h *orderedSharded) Shards() int { return 4 }
func (h *orderedSharded) ShardOf(msg Message) int {
	if m, ok := msg.([2]int); ok {
		return m[0]
	}
	return -1
}
func (h *orderedSharded) OnMessage(env Env, from string, msg Message) {
	m := msg.([2]int)
	h.on(m[0], m[1])
}

func TestFastPathAnswersOnDeliveringGoroutine(t *testing.T) {
	rt := NewRuntime(1)
	defer rt.Close()
	h := newShardedEcho(2)
	h.fastPrefix = "fast"
	rt.AddNode("n", h)

	var mu sync.Mutex
	var replies []string
	rt.AddNode("src", &captureHandler{on: func(m Message) {
		mu.Lock()
		replies = append(replies, m.(string))
		mu.Unlock()
	}})

	// The fast path only engages once the serial loop has processed
	// pevStart; a message delivered before that legally falls back to
	// normal dispatch. Wait for a control message to round-trip first.
	rt.Post("src", "n", "warmup")
	h.wait(t, 1)

	rt.Post("src", "n", "fast:1")
	rt.Post("src", "n", "k0:slow")
	deadline := time.Now().Add(5 * time.Second)
	for h.fastCount.Load() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if h.fastCount.Load() != 1 {
		t.Fatal("fast path never handled the message")
	}
	h.wait(t, 2) // warmup + the slow message through the shard mailbox
	h.mu.Lock()
	if _, ok := h.seen["fast:1"]; ok {
		t.Error("fast-handled message also reached OnMessage")
	}
	h.mu.Unlock()
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(replies)
		mu.Unlock()
		if n >= 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(replies) == 0 || replies[0] != "fast-reply:fast:1" {
		t.Fatalf("fast reply not delivered: %v", replies)
	}
}

type captureHandler struct {
	noopHandler
	on func(Message)
}

func (h *captureHandler) OnMessage(env Env, from string, msg Message) { h.on(msg) }

func TestShardTimersFireOnOwningShard(t *testing.T) {
	rt := NewRuntime(1)
	defer rt.Close()
	got := make(chan int, 1)
	h := &timerSharded{got: got}
	rt.AddNode("n", h)
	rt.AddNode("src", noopHandler{})
	rt.Post("src", "n", [2]int{2, 0}) // handler sets a timer from shard 2
	select {
	case d := <-got:
		if d != 2 {
			t.Fatalf("timer fired on domain %d, want 2", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shard timer never fired")
	}
}

type timerSharded struct {
	noopHandler
	got chan int
}

func (h *timerSharded) Shards() int { return 4 }
func (h *timerSharded) ShardOf(msg Message) int {
	if m, ok := msg.([2]int); ok {
		return m[0]
	}
	return -1
}
func (h *timerSharded) OnMessage(env Env, from string, msg Message) {
	env.SetTimer(time.Millisecond, "tick")
}
func (h *timerSharded) OnTimer(env Env, tag any) {
	d := env.Domain() - 1
	select {
	case h.got <- d:
	default:
	}
}

// InvokeShard runs a call on the named shard's loop, behind the messages
// already queued there; shard -1 runs it on the serial loop, and a shard
// the node does not have is refused.
func TestInvokeShardRunsOnTheShardInOrder(t *testing.T) {
	rt := NewRuntime(1)
	defer rt.Close()
	var handled atomic.Int64
	rt.AddNode("n", &orderedSharded{on: func(shard, i int) { handled.Add(1) }})
	rt.AddNode("src", noopHandler{})
	rt.AddNode("plain", noopHandler{})
	const queued = 100
	for i := 0; i < queued; i++ {
		rt.Post("src", "n", [2]int{1, i})
	}
	type ran struct {
		domain int
		before int64
	}
	call := func(id string, shard int) ran {
		t.Helper()
		got := make(chan ran, 1)
		if !rt.InvokeShard(id, shard, func(env Env) {
			got <- ran{env.Domain() - 1, handled.Load()}
		}) {
			t.Fatalf("InvokeShard(%q, %d) refused", id, shard)
		}
		select {
		case r := <-got:
			return r
		case <-time.After(5 * time.Second):
			t.Fatalf("InvokeShard(%q, %d) never ran", id, shard)
			return ran{}
		}
	}
	if r := call("n", 1); r.domain != 1 || r.before != queued {
		t.Fatalf("call on shard 1 ran on domain %d after %d of its %d queued messages", r.domain, r.before, queued)
	}
	if r := call("n", -1); r.domain != -1 {
		t.Fatalf("call on shard -1 ran on domain %d, want the serial loop", r.domain)
	}
	if r := call("plain", -1); r.domain != -1 {
		t.Fatalf("call on an unsharded node ran on domain %d, want the serial loop", r.domain)
	}
	if rt.InvokeShard("plain", 0, func(Env) {}) || rt.InvokeShard("n", 4, func(Env) {}) {
		t.Fatal("InvokeShard accepted a call for a shard the node does not have")
	}
	if st := rt.ShardStats("n"); st[1].Ops != queued+1 {
		t.Fatalf("shard 1 counted %d ops, want %d messages and the call", st[1].Ops, queued+1)
	}
	if rt.InvokeShard("nobody", 0, func(Env) {}) {
		t.Fatal("InvokeShard accepted a call for an unknown node")
	}
}

func TestShardStatsCountOps(t *testing.T) {
	rt := NewRuntime(1)
	defer rt.Close()
	h := newShardedEcho(2)
	rt.AddNode("n", h)
	rt.AddNode("src", noopHandler{})
	for i := 0; i < 10; i++ {
		rt.Post("src", "n", "k1:m"+fmt.Sprint(i))
	}
	h.wait(t, 10)
	st := rt.ShardStats("n")
	if len(st) != 2 {
		t.Fatalf("ShardStats returned %d entries, want 2", len(st))
	}
	if st[1].Ops != 10 || st[0].Ops != 0 {
		t.Fatalf("ops = [%d %d], want [0 10]", st[0].Ops, st[1].Ops)
	}
	if rt.ShardStats("src") != nil {
		t.Fatal("unsharded node reported shard stats")
	}
}

// domainProbe is a ShardedHandler of n shards that reports, for every
// invocation, the domain it was meant to run on beside the domain its Env
// names. A probeMsg runs on its shard's loop (or the serial loop for -1),
// sets a timer tagged with that domain, and is fast-handled if marked so.
type domainProbe struct {
	noopHandler
	n    int
	saw  chan [2]int // {domain meant, Env.Domain()}
	fast atomic.Int64
}

type probeMsg struct {
	shard int
	fast  bool
}

func (h *domainProbe) Shards() int             { return h.n }
func (h *domainProbe) ShardOf(msg Message) int { return msg.(probeMsg).shard }

func (h *domainProbe) FastHandle(env Env, from string, msg Message) bool {
	if !msg.(probeMsg).fast {
		return false
	}
	h.fast.Add(1)
	return true
}

func (h *domainProbe) OnStart(env Env) { h.saw <- [2]int{0, env.Domain()} }

func (h *domainProbe) OnMessage(env Env, from string, msg Message) {
	dom := 1 + msg.(probeMsg).shard
	h.saw <- [2]int{dom, env.Domain()}
	env.SetTimer(time.Millisecond, dom)
}

func (h *domainProbe) OnTimer(env Env, tag any) { h.saw <- [2]int{tag.(int), env.Domain()} }

// Every invocation's Env names the domain it runs on, 0 for the serial
// loop and 1+k for shard k, whatever the shard count; and a handler that
// declares one shard gets a shard loop of its own beside the serial loop,
// and the fast path, like one that declares more.
func TestEveryInvocationSeesItsDomain(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) {
			rt := NewRuntime(1)
			defer rt.Close()
			h := &domainProbe{n: shards, saw: make(chan [2]int, 16)}
			rt.AddNode("n", h)
			rt.AddNode("src", noopHandler{})
			expect := func(what string, n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					select {
					case s := <-h.saw:
						if s[0] != s[1] {
							t.Errorf("%s on domain %d: Env.Domain() = %d", what, s[0], s[1])
						}
					case <-time.After(5 * time.Second):
						t.Fatalf("%s never ran", what)
					}
				}
			}
			expect("OnStart", 1)
			for k := -1; k < shards; k++ {
				rt.Post("src", "n", probeMsg{shard: k})
				expect("OnMessage, then its OnTimer,", 2)
				if !rt.InvokeShard("n", k, func(env Env) { h.saw <- [2]int{1 + k, env.Domain()} }) {
					t.Fatalf("InvokeShard(n, %d) refused", k)
				}
				expect("an InvokeShard call", 1)
			}

			if st := rt.ShardStats("n"); len(st) != shards {
				t.Fatalf("%d shard loops, want %d", len(st), shards)
			}
			// Shard 0 runs while the serial loop is held: it is a loop of
			// its own, not the serial loop under another name.
			release := make(chan struct{})
			rt.Invoke("n", func(Env) { <-release })
			rt.Post("src", "n", probeMsg{shard: 0})
			expect("OnMessage on shard 0 while the serial loop is held, then its OnTimer,", 2)
			close(release)

			rt.Post("src", "n", probeMsg{shard: 0, fast: true})
			if got := h.fast.Load(); got != 1 {
				t.Fatalf("fast path took %d messages, want 1", got)
			}
		})
	}
}
