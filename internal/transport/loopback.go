package transport

import (
	"math/rand"
	"sync"
	"time"
)

// Loopback is the in-process transport: every node of a "cluster" is
// hosted on one Runtime, messages are delivered through mailboxes
// without touching a socket, and the link-fault surface of the
// simulator's nemesis (partitions, severed links, latency, crashes) is
// available in real time. Every transport-level test — and the off-sim
// conformance suite — runs against Loopback, so protocol behaviour over
// the real actor runtime is provable without network flakiness in CI.
type Loopback struct {
	*Runtime

	mu      sync.Mutex
	blocked map[[2]string]bool
	groups  map[string]int
	part    bool
	rng     *rand.Rand
	latLo   time.Duration
	latHi   time.Duration
}

// LoopbackConfig shapes a loopback cluster.
type LoopbackConfig struct {
	// Seed drives node randomness and latency jitter.
	Seed int64
	// MinLatency/MaxLatency add a uniform artificial delay per delivery
	// (zero means immediate). A few milliseconds surfaces interleavings
	// that instant delivery hides.
	MinLatency, MaxLatency time.Duration
}

// NewLoopback returns an empty loopback transport.
func NewLoopback(cfg LoopbackConfig) *Loopback {
	l := &Loopback{
		Runtime: NewRuntime(cfg.Seed),
		blocked: make(map[[2]string]bool),
		groups:  make(map[string]int),
		rng:     rand.New(rand.NewSource(cfg.Seed ^ 0x10c4_10c4)),
		latLo:   cfg.MinLatency,
		latHi:   cfg.MaxLatency,
	}
	l.Runtime.cut = l.cutLink
	// Installed unconditionally: Runtime.send only defers delivery when
	// the hook returns d > 0, so an unconfigured link still dispatches
	// directly in send order — conformance seeds see identical
	// interleavings whether or not the hook is present.
	l.Runtime.delay = l.linkDelay
	return l
}

// cutLink decides whether a send is dropped: a partition between the
// endpoints' groups or an explicitly severed link.
func (l *Loopback) cutLink(from, to string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.part && l.groups[from] != l.groups[to] {
		return true
	}
	return len(l.blocked) != 0 && l.blocked[[2]string{from, to}]
}

// linkDelay draws the artificial one-way latency for a send from the
// uniform jitter range. Zero means direct in-order dispatch.
func (l *Loopback) linkDelay(from, to string) time.Duration {
	if l.latHi <= l.latLo {
		return l.latLo
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.latLo + time.Duration(l.rng.Int63n(int64(l.latHi-l.latLo)))
}

// Partition splits the cluster into groups: sends between different
// groups drop until Heal. Ids not named join group 0, so a client node
// must be listed to follow a storage node to a side.
func (l *Loopback) Partition(groups ...[]string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.groups = make(map[string]int)
	l.part = false
	for gi, g := range groups {
		for _, id := range g {
			l.groups[id] = gi
			if gi != 0 {
				l.part = true
			}
		}
	}
}

// BlockLink severs the directed link from → to until Heal.
func (l *Loopback) BlockLink(from, to string) {
	l.mu.Lock()
	l.blocked[[2]string{from, to}] = true
	l.mu.Unlock()
}

// Heal removes all partitions and severed links.
func (l *Loopback) Heal() {
	l.mu.Lock()
	l.blocked = make(map[[2]string]bool)
	l.groups = make(map[string]int)
	l.part = false
	l.mu.Unlock()
}

// Crash takes a node down: queued and future messages and timers are
// discarded until Restart. The handler keeps its in-memory state, like
// sim.Cluster.Crash.
func (l *Loopback) Crash(id string) { l.Runtime.crash(id) }

// Restart boots a crashed node; its OnStart runs again.
func (l *Loopback) Restart(id string) { l.Runtime.restart(id) }
