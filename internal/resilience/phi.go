package resilience

import (
	"math"
	"slices"
	"sync"
	"time"
)

// phiWindow is how many inter-arrival samples a Detector keeps.
const phiWindow = 16

// Detector is a phi-accrual failure detector for a single peer
// (Hayashibara et al., "The phi accrual failure detector", SRDS 2004),
// in the simplified exponential form Cassandra ships: suspicion
//
//	phi(now) = (now - lastArrival) / meanInterval * log10(e)
//
// grows continuously with silence instead of flipping a binary timeout,
// and the threshold translates directly into a false-positive rate.
// phi = 1 means the silence is ~2.3x the mean arrival interval, phi = 2
// is ~4.6x, and so on.
type Detector struct {
	intervals [phiWindow]time.Duration
	n         int // samples stored (<= phiWindow)
	next      int // ring cursor
	last      time.Duration
	seen      bool
	expected  time.Duration // prior mean until real samples arrive
}

// NewDetector returns a detector primed with the expected arrival
// interval (a Directory primes it with two heartbeat intervals). The
// prior keeps phi meaningful before the window fills, and half of it
// floors the mean after (see mean).
func NewDetector(expected time.Duration) *Detector {
	if expected <= 0 {
		expected = 100 * time.Millisecond
	}
	return &Detector{expected: expected}
}

// Observe records an arrival from the peer at virtual time now.
func (d *Detector) Observe(now time.Duration) {
	if d.seen {
		iv := now - d.last
		if iv < 0 {
			iv = 0
		}
		// Cap pathological gaps (e.g. a long partition) at 10x the
		// expected interval so one outage doesn't poison the mean and
		// mask the next one.
		if cap := 10 * d.expected; iv > cap {
			iv = cap
		}
		d.intervals[d.next] = iv
		d.next = (d.next + 1) % phiWindow
		if d.n < phiWindow {
			d.n++
		}
	}
	d.last = now
	d.seen = true
}

// mean is the mean inter-arrival interval, floored at half the prior,
// which is the heartbeat interval for the detectors a Directory makes. Any
// message counts as an arrival, so a burst (the traffic of a node's
// first moments) would otherwise drive a healthy peer's mean to a few
// milliseconds, and an ordinary pause between heartbeats would read as
// a failure.
func (d *Detector) mean() time.Duration {
	if d.n == 0 {
		return d.expected
	}
	var sum time.Duration
	for i := 0; i < d.n; i++ {
		sum += d.intervals[i]
	}
	return max(sum/time.Duration(d.n), d.expected/2)
}

// Phi returns the current suspicion level at virtual time now. A peer
// never heard from scores 0 until expected time has elapsed since the
// detector was created — Observe must be called at least once (the
// caller seeds detectors on first send) for silence to accrue.
func (d *Detector) Phi(now time.Duration) float64 {
	if !d.seen {
		return 0
	}
	silence := now - d.last
	if silence <= 0 {
		return 0
	}
	return float64(silence) / float64(d.mean()) * math.Log10E
}

// Directory tracks a Detector per observer/peer pair, fed by the
// simulator's delivery hook: every message delivered from `from` to
// `to` is evidence, at `to`, that `from` is alive. The key is the
// (observer, peer) pair so each node's view is independent — exactly
// the per-link knowledge a real process has.
//
// Directory is safe for concurrent use: on the simulator everything runs
// single-threaded, but the TCP transport feeds it from one reader
// goroutine per peer connection while HTTP handlers query phi.
type Directory struct {
	mu        sync.Mutex
	policy    *Policy
	detectors map[[2]string]*Detector
}

// NewDirectory returns a Directory using policy's heartbeat interval
// as the detectors' prior expected arrival interval.
func NewDirectory(policy *Policy) *Directory {
	return &Directory{
		policy:    policy.Normalized(),
		detectors: make(map[[2]string]*Detector),
	}
}

// Observe records that observer received a message from peer at
// virtual time at. The signature matches sim.Cluster's OnDeliver hook
// (from, to, time): dir.Observe is wired directly as the callback.
func (d *Directory) Observe(from, to string, at time.Duration) {
	d.mu.Lock()
	d.detector(to, from).Observe(at)
	d.mu.Unlock()
}

// detector must be called with mu held.
func (d *Directory) detector(observer, peer string) *Detector {
	k := [2]string{observer, peer}
	det := d.detectors[k]
	if det == nil {
		// Expect roughly one heartbeat interval between arrivals; real
		// traffic only tightens the estimate.
		det = NewDetector(2 * d.policy.HeartbeatInterval)
		d.detectors[k] = det
	}
	return det
}

// Phi returns observer's suspicion of peer at virtual time now
// (0 if observer has never heard from peer).
func (d *Directory) Phi(observer, peer string, now time.Duration) float64 {
	k := [2]string{observer, peer}
	d.mu.Lock()
	defer d.mu.Unlock()
	det := d.detectors[k]
	if det == nil {
		return 0
	}
	return det.Phi(now)
}

// Suspects reports whether observer's phi for peer exceeds the policy
// threshold.
func (d *Directory) Suspects(observer, peer string, now time.Duration) bool {
	return d.Phi(observer, peer, now) > d.policy.PhiThreshold
}

// Latency is a bounded reservoir of observed response times used to
// pick hedge delays: Quantile(q) answers "how long is suspiciously
// long?" with a number grounded in this run's actual latency
// distribution rather than a magic constant. The window is kept sorted
// as it is observed, so a quantile is an index: every strong read asks
// for one.
type Latency struct {
	ring   [latencyWindow]time.Duration // the samples in arrival order
	sorted [latencyWindow]time.Duration // the same samples, ascending
	n      int                          // samples held
	next   int                          // ring slot of the next sample
}

// latencyWindow bounds the reservoir; old samples are overwritten
// ring-buffer style so the estimate tracks current conditions.
const latencyWindow = 64

// Observe records one response time, evicting the oldest sample once
// the window is full.
func (l *Latency) Observe(rtt time.Duration) {
	n := l.n
	if n == latencyWindow {
		i, _ := slices.BinarySearch(l.sorted[:n], l.ring[l.next])
		n--
		copy(l.sorted[i:n], l.sorted[i+1:])
	}
	l.ring[l.next] = rtt
	l.next = (l.next + 1) % latencyWindow
	i, _ := slices.BinarySearch(l.sorted[:n], rtt)
	copy(l.sorted[i+1:n+1], l.sorted[i:n])
	l.sorted[i] = rtt
	l.n = n + 1
}

// Count returns how many samples are held.
func (l *Latency) Count() int { return l.n }

// Quantile returns the q-quantile of the held samples (0 if empty).
func (l *Latency) Quantile(q float64) time.Duration {
	if l.n == 0 {
		return 0
	}
	idx := min(max(int(q*float64(l.n)), 0), l.n-1)
	return l.sorted[idx]
}

// HedgeDelay returns how long a quorum read waits before it asks one
// more replica. It is the policy quantile of observed latency, floored
// by HedgeMinDelay (which also stands in while samples are scarce).
func (l *Latency) HedgeDelay(p *Policy) time.Duration {
	d := p.HedgeMinDelay
	if l.Count() >= 8 {
		if q := l.Quantile(p.HedgeQuantile); q > d {
			d = q
		}
	}
	return d
}
