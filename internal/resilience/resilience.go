// Package resilience provides the fault-tolerance primitives the stores
// share: exponential backoff with jitter, per-operation retry budgets
// with idempotency guards, the latency reservoir a quorum read's hedge
// delay is a percentile of, a phi-accrual failure detector (Hayashibara
// et al.; motivated here by Dubois et al.'s result that eventual
// consistency needs an explicit failure-detection component), and a
// circuit breaker that sheds load away from suspected peers. The
// clients that fail over across nodes combine them in one place,
// transport.Sender.
//
// Everything in this package is deterministic under the simulator's
// regime: time is always passed in as the virtual clock value, and every
// random draw (jitter) comes from a *rand.Rand the caller supplies —
// normally sim.Env.Rand(). Nothing here reads the wall clock, so a run
// with resilience enabled is still a pure function of its seed.
package resilience

import (
	"math/rand"
	"time"

	"repro/internal/metrics"
)

// Policy bundles the resilience knobs one store (or client) runs with.
// The zero value is not useful; start from DefaultPolicy and override.
type Policy struct {
	// MaxAttempts is the per-operation attempt budget, counting the
	// first send (default 4). Retries beyond it are suppressed.
	MaxAttempts int
	// BaseBackoff is the first retry delay ceiling (default 60ms);
	// successive attempts double it up to MaxBackoff (default 1s). The
	// actual delay is equal-jittered: ceiling/2 + uniform(0, ceiling/2).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// RetryTimeout is how long a client waits for any response from its
	// current target before failing over to another (default 400ms).
	RetryTimeout time.Duration
	// HedgeQuantile is the observed-latency quantile of its replicas'
	// answers after which a quorum read's coordinator asks one more
	// replica (default 0.95). <= 0 disables hedging. Clients never
	// hedge.
	HedgeQuantile float64
	// HedgeMinDelay floors the hedge delay and stands in for it until
	// enough latency samples exist (default 120ms).
	HedgeMinDelay time.Duration
	// PhiThreshold is the phi-accrual suspicion level (default 2.0:
	// a silence of ~4.6x the mean arrival interval).
	PhiThreshold float64
	// HeartbeatInterval paces liveness pings between peers and seeds
	// the failure detector's expected arrival interval (default 100ms).
	HeartbeatInterval time.Duration
	// BreakerFailures is how many consecutive failures trip a circuit
	// breaker (default 3); BreakerCooldown is how long it stays open
	// before admitting a half-open probe (default 1.5s).
	BreakerFailures int
	BreakerCooldown time.Duration
}

// DefaultPolicy returns the default resilience policy.
func DefaultPolicy() *Policy {
	return &Policy{
		MaxAttempts:       4,
		BaseBackoff:       60 * time.Millisecond,
		MaxBackoff:        time.Second,
		RetryTimeout:      400 * time.Millisecond,
		HedgeQuantile:     0.95,
		HedgeMinDelay:     120 * time.Millisecond,
		PhiThreshold:      2.0,
		HeartbeatInterval: 100 * time.Millisecond,
		BreakerFailures:   3,
		BreakerCooldown:   1500 * time.Millisecond,
	}
}

// withDefaults fills zero fields from DefaultPolicy.
func (p *Policy) withDefaults() *Policy {
	d := DefaultPolicy()
	if p == nil {
		return d
	}
	out := *p
	if out.MaxAttempts <= 0 {
		out.MaxAttempts = d.MaxAttempts
	}
	if out.BaseBackoff <= 0 {
		out.BaseBackoff = d.BaseBackoff
	}
	if out.MaxBackoff <= 0 {
		out.MaxBackoff = d.MaxBackoff
	}
	if out.RetryTimeout <= 0 {
		out.RetryTimeout = d.RetryTimeout
	}
	if out.HedgeMinDelay <= 0 {
		out.HedgeMinDelay = d.HedgeMinDelay
	}
	if out.PhiThreshold <= 0 {
		out.PhiThreshold = d.PhiThreshold
	}
	if out.HeartbeatInterval <= 0 {
		out.HeartbeatInterval = d.HeartbeatInterval
	}
	if out.BreakerFailures <= 0 {
		out.BreakerFailures = d.BreakerFailures
	}
	if out.BreakerCooldown <= 0 {
		out.BreakerCooldown = d.BreakerCooldown
	}
	return &out
}

// Normalized returns a copy of p with every zero field defaulted. A nil
// policy normalizes to DefaultPolicy.
func (p *Policy) Normalized() *Policy { return p.withDefaults() }

// Backoff returns the jittered delay before attempt (0-based attempt
// index of the retry being scheduled): equal jitter over an
// exponentially growing ceiling.
func (p *Policy) Backoff(attempt int, rng *rand.Rand) time.Duration {
	ceil := BackoffCeiling(p.BaseBackoff, p.MaxBackoff, attempt)
	half := ceil / 2
	if half <= 0 {
		return ceil
	}
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// BackoffCeiling is the deterministic exponential ceiling underneath
// Backoff: min(max, base<<attempt), saturating instead of overflowing.
// It is exposed (rather than inlined) so the fuzz target can check the
// state machine without a random source.
func BackoffCeiling(base, max time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = time.Millisecond
	}
	if max < base {
		max = base
	}
	d := base
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= max || d <= 0 { // saturate; d <= 0 guards overflow
			return max
		}
	}
	if d > max {
		return max
	}
	return d
}

// Counter names exported through metrics.Counters.
const (
	CounterRetries      = "resilience.retries"       // RPC/request retransmissions
	CounterHedges       = "resilience.hedges"        // replicas a quorum read asked because an answer was late
	CounterFailovers    = "resilience.failovers"     // target switched to a different peer
	CounterBreakerTrips = "resilience.breaker_trips" // circuit breakers opened
	CounterSuppressed   = "resilience.suppressed"    // retries denied by an exhausted budget
)

// Counters wraps a metrics.Counters with the resilience event names, so
// every layer increments the same registry and cmd/ecbench can print one
// deterministic line per run explaining why availability changed.
type Counters struct {
	M *metrics.Counters
}

// NewCounters returns an empty resilience counter registry.
func NewCounters() *Counters { return &Counters{M: metrics.NewCounters()} }

func (c *Counters) bump(name string) {
	if c == nil || c.M == nil {
		return
	}
	c.M.Inc(name)
}

// Retry records one retransmission.
func (c *Counters) Retry() { c.bump(CounterRetries) }

// Hedge records one hedged read.
func (c *Counters) Hedge() { c.bump(CounterHedges) }

// Failover records one target switch.
func (c *Counters) Failover() { c.bump(CounterFailovers) }

// BreakerTrip records one circuit breaker opening.
func (c *Counters) BreakerTrip() { c.bump(CounterBreakerTrips) }

// Suppressed records one retry denied by the budget.
func (c *Counters) Suppressed() { c.bump(CounterSuppressed) }

// String renders the counters deterministically ("" for nil).
func (c *Counters) String() string {
	if c == nil || c.M == nil {
		return ""
	}
	return c.M.String()
}

// Budget is the retry budget of one operation: a hard attempt cap plus
// an idempotency guard. Non-idempotent operations (no dedup token
// anywhere downstream) get exactly one attempt no matter the cap —
// retrying them could apply the effect twice.
type Budget struct {
	max        int
	attempts   int
	idempotent bool
	counters   *Counters
}

// NewBudget returns a budget of max total attempts (including the first
// send). idempotent declares that re-executing the operation is safe.
func NewBudget(max int, idempotent bool, counters *Counters) *Budget {
	if max < 1 {
		max = 1
	}
	return &Budget{max: max, idempotent: idempotent, counters: counters}
}

// Attempt consumes one attempt, reporting whether the caller may send.
// The first attempt is always allowed; later attempts require an
// idempotent operation and remaining budget.
func (b *Budget) Attempt() bool {
	if b.attempts == 0 {
		b.attempts++
		return true
	}
	if !b.idempotent || b.attempts >= b.max {
		if b.counters != nil {
			b.counters.Suppressed()
		}
		return false
	}
	b.attempts++
	return true
}

// Attempts returns how many attempts have been consumed.
func (b *Budget) Attempts() int { return b.attempts }
