package sim

import (
	"testing"
	"time"
)

// echoNode replies "pong" to every "ping" and records what it saw.
type echoNode struct {
	got    []string
	starts int
	timers []any
	sendAt map[string]time.Duration
}

func (e *echoNode) OnStart(env Env) { e.starts++ }
func (e *echoNode) OnMessage(env Env, from string, msg Message) {
	if s, ok := msg.(string); ok {
		e.got = append(e.got, s)
		if s == "ping" {
			env.Send(from, "pong")
		}
	}
}
func (e *echoNode) OnTimer(env Env, tag any) { e.timers = append(e.timers, tag) }

func TestDeliveryAndReply(t *testing.T) {
	c := New(Config{Seed: 1, Latency: Fixed(2 * time.Millisecond)})
	a, b := &echoNode{}, &echoNode{}
	c.AddNode("a", a)
	c.AddNode("b", b)
	c.At(0, func() { c.Send("a", "b", "ping") })
	c.RunAll()
	if len(b.got) != 1 || b.got[0] != "ping" {
		t.Fatalf("b got %v, want [ping]", b.got)
	}
	if len(a.got) != 1 || a.got[0] != "pong" {
		t.Fatalf("a got %v, want [pong]", a.got)
	}
	if c.Now() != 4*time.Millisecond {
		t.Fatalf("final time %v, want 4ms (two fixed 2ms hops)", c.Now())
	}
}

func TestOnStartRunsOnce(t *testing.T) {
	c := New(Config{Seed: 1})
	n := &echoNode{}
	c.AddNode("a", n)
	c.RunAll()
	if n.starts != 1 {
		t.Fatalf("starts = %d, want 1", n.starts)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed int64) ([]string, time.Duration) {
		c := New(Config{Seed: seed, Latency: Uniform(time.Millisecond, 10*time.Millisecond)})
		recv := &echoNode{}
		c.AddNode("r", recv)
		for i := 0; i < 3; i++ {
			c.AddNode(string(rune('a'+i)), &echoNode{})
		}
		c.At(0, func() {
			c.Send("a", "r", "m1")
			c.Send("b", "r", "m2")
			c.Send("c", "r", "m3")
		})
		c.RunAll()
		return recv.got, c.Now()
	}
	g1, t1 := run(42)
	g2, t2 := run(42)
	if t1 != t2 {
		t.Fatalf("same seed gave different end times: %v vs %v", t1, t2)
	}
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatalf("same seed gave different delivery order: %v vs %v", g1, g2)
		}
	}
	g3, _ := run(43)
	same := len(g3) == len(g1)
	if same {
		for i := range g1 {
			if g1[i] != g3[i] {
				same = false
				break
			}
		}
	}
	// Different seeds *may* coincide, but with 3! orderings it is a smoke
	// signal if they always do; only assert lengths here.
	if len(g3) != 3 {
		t.Fatalf("run with other seed lost messages: %v", g3)
	}
	_ = same
}

type timerNode struct {
	fired  []time.Duration
	cancel TimerID
}

func (n *timerNode) OnStart(env Env) {
	env.SetTimer(5*time.Millisecond, "a")
	n.cancel = env.SetTimer(7*time.Millisecond, "b")
	env.SetTimer(9*time.Millisecond, "c")
	env.Cancel(n.cancel)
}
func (n *timerNode) OnMessage(Env, string, Message) {}
func (n *timerNode) OnTimer(env Env, tag any) {
	n.fired = append(n.fired, env.Now())
}

func TestTimersFireAndCancel(t *testing.T) {
	c := New(Config{Seed: 1})
	n := &timerNode{}
	c.AddNode("a", n)
	c.RunAll()
	if len(n.fired) != 2 {
		t.Fatalf("fired %d timers, want 2 (one cancelled)", len(n.fired))
	}
	if n.fired[0] != 5*time.Millisecond || n.fired[1] != 9*time.Millisecond {
		t.Fatalf("fire times %v, want [5ms 9ms]", n.fired)
	}
}

func TestPartitionDropsAndHeals(t *testing.T) {
	c := New(Config{Seed: 1, Latency: Fixed(time.Millisecond)})
	a, b := &echoNode{}, &echoNode{}
	c.AddNode("a", a)
	c.AddNode("b", b)
	c.Partition([]string{"a"}, []string{"b"})
	c.At(0, func() { c.Send("a", "b", "lost") })
	c.Run(10 * time.Millisecond)
	if len(b.got) != 0 {
		t.Fatalf("partitioned message delivered: %v", b.got)
	}
	c.Heal()
	c.After(0, func() { c.Send("a", "b", "found") })
	c.Run(20 * time.Millisecond)
	if len(b.got) != 1 || b.got[0] != "found" {
		t.Fatalf("post-heal delivery failed: %v", b.got)
	}
	if c.Stats().MessagesDropped != 1 {
		t.Fatalf("dropped = %d, want 1", c.Stats().MessagesDropped)
	}
}

func TestCrashDropsMessagesAndTimers(t *testing.T) {
	c := New(Config{Seed: 1, Latency: Fixed(time.Millisecond)})
	n := &timerNode{} // sets timers at 5, 9ms on every start
	c.AddNode("a", n)
	c.At(2*time.Millisecond, func() { c.Crash("a") })
	c.Run(20 * time.Millisecond)
	if len(n.fired) != 0 {
		t.Fatalf("timers fired on crashed node: %v", n.fired)
	}
	if c.Up("a") {
		t.Fatal("node should be down")
	}
	c.At(c.Now(), func() { c.Restart("a") })
	c.Run(100 * time.Millisecond)
	if !c.Up("a") {
		t.Fatal("node should be up after restart")
	}
	// OnStart ran again -> two fresh timers fired after restart.
	if len(n.fired) != 2 {
		t.Fatalf("fired %d timers after restart, want 2", len(n.fired))
	}
}

func TestLossyDropsFraction(t *testing.T) {
	c := New(Config{Seed: 7, Latency: Lossy(Fixed(time.Millisecond), 0.5)})
	r := &echoNode{}
	c.AddNode("r", r)
	c.AddNode("s", &echoNode{})
	const total = 2000
	c.At(0, func() {
		for i := 0; i < total; i++ {
			c.Send("s", "r", "x")
		}
	})
	c.RunAll()
	// r echoes pongs back which are also lossy; count only what r got.
	frac := float64(len(r.got)) / total
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("delivered fraction %.3f, want ≈0.5", frac)
	}
}

func TestGeoLatency(t *testing.T) {
	geo := &Geo{
		DC:         map[string]string{"a": "us", "b": "eu"},
		DefaultDC:  "us",
		Local:      Fixed(time.Millisecond),
		WAN:        map[[2]string]time.Duration{{"us", "eu"}: 50 * time.Millisecond},
		DefaultWAN: 100 * time.Millisecond,
	}
	c := New(Config{Seed: 1, Latency: geo})
	a, b := &echoNode{}, &echoNode{}
	c.AddNode("a", a)
	c.AddNode("b", b)
	c.At(0, func() { c.Send("a", "b", "ping") })
	c.RunAll()
	// one-way a->b = 1ms local + 50ms WAN; pong returns the same (lookup
	// falls back to the (us,eu) entry for (eu,us)).
	if c.Now() != 102*time.Millisecond {
		t.Fatalf("round trip took %v, want 102ms", c.Now())
	}
}

func TestGeoSameDCNoWAN(t *testing.T) {
	geo := &Geo{
		DC:    map[string]string{"a": "us", "b": "us"},
		Local: Fixed(time.Millisecond),
		WAN:   map[[2]string]time.Duration{},
	}
	c := New(Config{Seed: 1, Latency: geo})
	c.AddNode("a", &echoNode{})
	c.AddNode("b", &echoNode{})
	c.At(0, func() { c.Send("a", "b", "ping") })
	c.RunAll()
	if c.Now() != 2*time.Millisecond {
		t.Fatalf("round trip %v, want 2ms", c.Now())
	}
}

type sized struct{ n int }

func (s sized) Size() int { return s.n }

func TestBytesAccounting(t *testing.T) {
	c := New(Config{Seed: 1, Latency: Fixed(time.Millisecond)})
	c.AddNode("a", &echoNode{})
	c.AddNode("b", &echoNode{})
	c.At(0, func() { c.Send("a", "b", sized{n: 128}) })
	c.RunAll()
	if got := c.Stats().BytesDelivered; got != 128 {
		t.Fatalf("BytesDelivered = %d, want 128", got)
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	c := New(Config{Seed: 1, Latency: Fixed(10 * time.Millisecond)})
	b := &echoNode{}
	c.AddNode("a", &echoNode{})
	c.AddNode("b", b)
	c.At(0, func() { c.Send("a", "b", "ping") })
	c.Run(5 * time.Millisecond)
	if len(b.got) != 0 {
		t.Fatal("event beyond horizon ran")
	}
	if c.Now() != 5*time.Millisecond {
		t.Fatalf("Now() = %v, want horizon 5ms", c.Now())
	}
	c.Run(15 * time.Millisecond)
	if len(b.got) != 1 {
		t.Fatal("event within extended horizon did not run")
	}
}

// horizonNode cancels a 500 ms timer and leaves a 2 s one set.
type horizonNode struct{ timerNode }

func (n *horizonNode) OnStart(env Env) {
	env.Cancel(env.SetTimer(500*time.Millisecond, "cancelled"))
	env.SetTimer(2*time.Second, "late")
}

// A skipped event (here a cancelled timer) inside the horizon must not
// let Run execute the next event beyond it.
func TestRunStopsAtHorizonPastSkippedEvents(t *testing.T) {
	c := New(Config{Seed: 1})
	n := &horizonNode{}
	c.AddNode("a", n)
	c.Run(time.Second)
	if len(n.fired) != 0 {
		t.Fatalf("timers fired at %v inside Run(1s), want none", n.fired)
	}
	if c.Now() != time.Second {
		t.Fatalf("Now() = %v, want horizon 1s", c.Now())
	}
	c.Run(3 * time.Second)
	if len(n.fired) != 1 || n.fired[0] != 2*time.Second {
		t.Fatalf("fire times %v after Run(3s), want [2s]", n.fired)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddNode did not panic")
		}
	}()
	c := New(Config{Seed: 1})
	c.AddNode("a", &echoNode{})
	c.AddNode("a", &echoNode{})
}

func TestSendToUnknownNodeDropped(t *testing.T) {
	c := New(Config{Seed: 1, Latency: Fixed(time.Millisecond)})
	c.AddNode("a", &echoNode{})
	c.At(0, func() { c.Send("a", "ghost", "x") })
	c.RunAll()
	if c.Stats().MessagesDropped != 1 {
		t.Fatalf("dropped = %d, want 1", c.Stats().MessagesDropped)
	}
}
