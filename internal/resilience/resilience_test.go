package resilience

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

func TestBackoffCeilingGrowsAndSaturates(t *testing.T) {
	base, max := 60*time.Millisecond, time.Second
	prev := time.Duration(0)
	for i := 0; i < 20; i++ {
		c := BackoffCeiling(base, max, i)
		if c < prev {
			t.Fatalf("ceiling shrank at attempt %d: %v < %v", i, c, prev)
		}
		if c > max {
			t.Fatalf("ceiling exceeded max at attempt %d: %v", i, c)
		}
		prev = c
	}
	if got := BackoffCeiling(base, max, 0); got != base {
		t.Fatalf("attempt 0 ceiling = %v, want %v", got, base)
	}
	if got := BackoffCeiling(base, max, 100); got != max {
		t.Fatalf("saturated ceiling = %v, want %v", got, max)
	}
}

func TestBackoffJitterWithinBounds(t *testing.T) {
	p := DefaultPolicy()
	rng := rand.New(rand.NewSource(42))
	for attempt := 0; attempt < 8; attempt++ {
		ceil := BackoffCeiling(p.BaseBackoff, p.MaxBackoff, attempt)
		for i := 0; i < 200; i++ {
			d := p.Backoff(attempt, rng)
			if d < ceil/2 || d > ceil {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, ceil/2, ceil)
			}
		}
	}
}

func TestBudgetIdempotent(t *testing.T) {
	c := NewCounters()
	b := NewBudget(3, true, c)
	for i := 0; i < 3; i++ {
		if !b.Attempt() {
			t.Fatalf("attempt %d denied within budget", i)
		}
	}
	if b.Attempt() {
		t.Fatal("attempt beyond budget allowed")
	}
	if b.Attempts() != 3 {
		t.Fatalf("attempts = %d, want 3", b.Attempts())
	}
	if got := c.M.Get(CounterSuppressed); got != 1 {
		t.Fatalf("suppressed = %d, want 1", got)
	}
}

func TestBudgetNonIdempotentSingleShot(t *testing.T) {
	b := NewBudget(5, false, nil)
	if !b.Attempt() {
		t.Fatal("first attempt denied")
	}
	for i := 0; i < 4; i++ {
		if b.Attempt() {
			t.Fatal("non-idempotent op retried")
		}
	}
}

func TestDetectorSuspicionRisesWithSilence(t *testing.T) {
	d := NewDetector(100 * time.Millisecond)
	now := time.Duration(0)
	for i := 0; i < 20; i++ {
		now += 100 * time.Millisecond
		d.Observe(now)
	}
	if phi := d.Phi(now + 50*time.Millisecond); phi > 1 {
		t.Fatalf("phi after normal gap = %v, want < 1", phi)
	}
	if phi := d.Phi(now + 2*time.Second); phi < 2 {
		t.Fatalf("phi after 20x silence = %v, want > 2", phi)
	}
	// Recovery: a fresh arrival resets suspicion.
	now += 2 * time.Second
	d.Observe(now)
	if phi := d.Phi(now + 50*time.Millisecond); phi > 1 {
		t.Fatalf("phi after recovery = %v, want < 1", phi)
	}
}

func TestDetectorOutlierCap(t *testing.T) {
	// One huge gap must not inflate the mean so far that the next
	// outage is masked.
	d := NewDetector(100 * time.Millisecond)
	now := time.Duration(0)
	for i := 0; i < phiWindow; i++ {
		now += 100 * time.Millisecond
		d.Observe(now)
	}
	now += time.Hour // partition
	d.Observe(now)
	if m := d.mean(); m > 200*time.Millisecond {
		t.Fatalf("mean after capped outlier = %v, want <= 200ms", m)
	}
}

// TestBurstDoesNotShrinkTheMeanBelowAHeartbeat: at boot a peer's
// messages come in a burst. Fifty arrivals 1 ms apart and then 60 ms of
// quiet, well inside one heartbeat interval, must not make a healthy
// peer suspect: a mean floored at 1 ms reads phi 26 here. A silence of
// ten heartbeats still must.
func TestBurstDoesNotShrinkTheMeanBelowAHeartbeat(t *testing.T) {
	dir := NewDirectory(DefaultPolicy())
	now := time.Duration(0)
	for i := 0; i < 50; i++ {
		now += time.Millisecond
		dir.Observe("b", "a", now)
	}
	if phi := dir.Phi("a", "b", now+60*time.Millisecond); dir.Suspects("a", "b", now+60*time.Millisecond) {
		t.Fatalf("a suspects b after a burst and 60 ms of quiet: phi %.1f", phi)
	}
	if !dir.Suspects("a", "b", now+time.Second) {
		t.Fatalf("a does not suspect b after a second of silence: phi %.1f", dir.Phi("a", "b", now+time.Second))
	}
}

func TestDirectoryPerObserverViews(t *testing.T) {
	dir := NewDirectory(nil)
	now := time.Duration(0)
	for i := 0; i < 20; i++ {
		now += 100 * time.Millisecond
		dir.Observe("b", "a", now) // a hears from b
	}
	// a suspects a silent b...
	if !dir.Suspects("a", "b", now+5*time.Second) {
		t.Fatal("a should suspect long-silent b")
	}
	// ...but c, which never heard from b, has no evidence either way.
	if dir.Suspects("c", "b", now+5*time.Second) {
		t.Fatal("c has no observations of b and must not suspect it")
	}
}

func TestBreakerLifecycle(t *testing.T) {
	c := NewCounters()
	p := DefaultPolicy()
	b := NewBreaker(p, c)
	now := time.Duration(0)

	for i := 0; i < p.BreakerFailures; i++ {
		if !b.Allow(now) {
			t.Fatalf("closed breaker denied request %d", i)
		}
		b.Failure(now)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state after %d failures = %v, want open", p.BreakerFailures, b.State())
	}
	if b.Allow(now + p.BreakerCooldown/2) {
		t.Fatal("open breaker allowed request before cooldown")
	}

	// Cooldown elapses: one half-open probe admitted, a second denied.
	now += p.BreakerCooldown + time.Millisecond
	if !b.Allow(now) {
		t.Fatal("breaker denied half-open probe after cooldown")
	}
	if b.Allow(now) {
		t.Fatal("breaker allowed second concurrent half-open probe")
	}

	// Failed probe re-opens; successful probe closes.
	b.Failure(now)
	if b.State() != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	now += p.BreakerCooldown + time.Millisecond
	if !b.Allow(now) {
		t.Fatal("breaker denied second probe")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", b.State())
	}
	if got := c.M.Get(CounterBreakerTrips); got != 2 {
		t.Fatalf("breaker trips = %d, want 2", got)
	}
}

func TestLatencyQuantileAndHedgeDelay(t *testing.T) {
	var l Latency
	p := DefaultPolicy()
	// Too few samples: floor applies.
	l.Observe(10 * time.Millisecond)
	if d := l.HedgeDelay(p); d != p.HedgeMinDelay {
		t.Fatalf("hedge delay with 1 sample = %v, want floor %v", d, p.HedgeMinDelay)
	}
	for i := 1; i <= 100; i++ {
		l.Observe(time.Duration(i) * 10 * time.Millisecond)
	}
	q := l.Quantile(0.95)
	if q < 500*time.Millisecond || q > time.Second {
		t.Fatalf("p95 of ramp = %v, want within [500ms, 1s]", q)
	}
	if d := l.HedgeDelay(p); d != q {
		t.Fatalf("hedge delay = %v, want p95 %v", d, q)
	}
	if l.Count() != latencyWindow {
		t.Fatalf("count = %d, want window cap %d", l.Count(), latencyWindow)
	}
	// Every quorum request asks for a hedge delay: it must not allocate.
	if a := testing.AllocsPerRun(100, func() { l.HedgeDelay(p) }); a != 0 {
		t.Fatalf("HedgeDelay over a full window: %v allocs, want 0", a)
	}
}

// The sorted window answers every quantile exactly as sorting the last
// latencyWindow samples would, over random sequences with repeats.
func TestLatencyQuantileMatchesASortedWindow(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	qs := []float64{-1, 0, 0.01, 0.5, 0.9, 0.95, 0.99, 1, 2}
	for trial := 0; trial < 200; trial++ {
		var l Latency
		var seen []time.Duration
		spread := 1 + r.Intn(300) // small spreads repeat values
		for i := 0; i < 1+r.Intn(300); i++ {
			d := time.Duration(r.Intn(spread)) * time.Microsecond
			l.Observe(d)
			seen = append(seen, d)
			window := slices.Clone(seen[max(0, len(seen)-latencyWindow):])
			slices.Sort(window)
			if l.Count() != len(window) {
				t.Fatalf("trial %d: count %d, want %d", trial, l.Count(), len(window))
			}
			for _, q := range qs {
				idx := min(max(int(q*float64(len(window))), 0), len(window)-1)
				if got := l.Quantile(q); got != window[idx] {
					t.Fatalf("trial %d after %d samples: Quantile(%v) = %v, a sorted window says %v", trial, len(seen), q, got, window[idx])
				}
			}
		}
	}
}

// A strong read observes an answer delay and asks for a quantile: neither
// allocates, while the window fills or once it is full.
func TestLatencyObserveAndQuantileAllocateNothing(t *testing.T) {
	var l Latency
	i := 0
	if a := testing.AllocsPerRun(3*latencyWindow, func() {
		i++
		l.Observe(time.Duration(i*7919%1000) * time.Microsecond)
		l.Quantile(0.95)
	}); a != 0 {
		t.Fatalf("Observe + Quantile: %v allocs, want 0", a)
	}
}

func TestPolicyNormalizedFillsZeroFields(t *testing.T) {
	p := (&Policy{MaxAttempts: 7}).Normalized()
	if p.MaxAttempts != 7 {
		t.Fatalf("override lost: MaxAttempts = %d", p.MaxAttempts)
	}
	d := DefaultPolicy()
	if p.BaseBackoff != d.BaseBackoff || p.PhiThreshold != d.PhiThreshold ||
		p.HeartbeatInterval != d.HeartbeatInterval || p.BreakerCooldown != d.BreakerCooldown {
		t.Fatalf("defaults not filled: %+v", p)
	}
	if got := (*Policy)(nil).Normalized(); got.MaxAttempts != d.MaxAttempts {
		t.Fatal("nil policy did not normalize to defaults")
	}
}

func TestCountersRenderDeterministic(t *testing.T) {
	c := NewCounters()
	c.Retry()
	c.Retry()
	c.Hedge()
	c.Failover()
	c.BreakerTrip()
	want := "resilience.breaker_trips=1 resilience.failovers=1 resilience.hedges=1 resilience.retries=2"
	if got := c.String(); got != want {
		t.Fatalf("counters = %q, want %q", got, want)
	}
	var nilc *Counters
	nilc.Retry() // must not panic
	if nilc.String() != "" {
		t.Fatal("nil counters should render empty")
	}
}
