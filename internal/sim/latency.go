package sim

import (
	"math/rand"
	"time"
)

// LatencyModel decides, per transmission, how long delivery takes and
// whether the message survives at all. Implementations must be
// deterministic given the supplied random source.
type LatencyModel interface {
	// Sample returns the one-way delay from -> to, and ok=false if the
	// message is lost.
	Sample(from, to string, r *rand.Rand) (d time.Duration, ok bool)
}

// Duplicator is an optional extension of LatencyModel. When the
// cluster's model implements it, each transmission is delivered Copies
// times (each copy sampling its own delay), modelling networks that
// duplicate packets. Copies results below 1 mean a single copy; loss is
// still expressed through Sample.
type Duplicator interface {
	Copies(from, to string, r *rand.Rand) int
}

// LatencyFunc adapts a function to the LatencyModel interface.
type LatencyFunc func(from, to string, r *rand.Rand) (time.Duration, bool)

// Sample implements LatencyModel.
func (f LatencyFunc) Sample(from, to string, r *rand.Rand) (time.Duration, bool) {
	return f(from, to, r)
}

// Uniform returns a model with delay drawn uniformly from [min, max] for
// every link and no loss.
func Uniform(min, max time.Duration) LatencyModel {
	return LatencyFunc(func(_, _ string, r *rand.Rand) (time.Duration, bool) {
		if max <= min {
			return min, true
		}
		return min + time.Duration(r.Int63n(int64(max-min)+1)), true
	})
}

// Fixed returns a model with a constant delay and no loss — useful for
// tests that assert exact timings.
func Fixed(d time.Duration) LatencyModel {
	return LatencyFunc(func(_, _ string, _ *rand.Rand) (time.Duration, bool) {
		return d, true
	})
}

// Bimodal returns a model where each message is independently slow with
// probability pSlow: fast messages draw from fast, slow ones from slow.
// This is the heavy-tailed shape behind probabilistically bounded
// staleness: a write acknowledged via the fast replicas can leave a
// laggard replica stale for tens of milliseconds.
func Bimodal(fast, slow LatencyModel, pSlow float64) LatencyModel {
	return LatencyFunc(func(from, to string, r *rand.Rand) (time.Duration, bool) {
		if r.Float64() < pSlow {
			return slow.Sample(from, to, r)
		}
		return fast.Sample(from, to, r)
	})
}

// Lossy wraps a model, dropping each message independently with
// probability p.
func Lossy(m LatencyModel, p float64) LatencyModel {
	return LatencyFunc(func(from, to string, r *rand.Rand) (time.Duration, bool) {
		if r.Float64() < p {
			return 0, false
		}
		return m.Sample(from, to, r)
	})
}

// Geo models a multi-data-center topology: each node is assigned to a
// data center; intra-DC messages use the Local model and inter-DC
// messages add the configured one-way WAN delay between the two DCs.
//
// This is the stand-in for the geo-replicated deployments (Dynamo, COPS,
// Pileus, Spanner) the tutorial's latency arguments are about.
type Geo struct {
	// DC maps node id -> data center name. Unmapped nodes (for example
	// external clients) belong to DefaultDC.
	DC map[string]string
	// DefaultDC is the data center of unmapped node ids.
	DefaultDC string
	// Local is the intra-DC model. If nil, Uniform(500µs, 2ms) is used.
	Local LatencyModel
	// WAN gives the one-way delay between ordered DC pairs. Lookup tries
	// (a,b) then (b,a); a missing pair falls back to DefaultWAN.
	WAN map[[2]string]time.Duration
	// DefaultWAN is the one-way delay for DC pairs missing from WAN.
	DefaultWAN time.Duration
	// Jitter, if positive, adds a uniform [0, Jitter] term to WAN hops.
	Jitter time.Duration
}

// Sample implements LatencyModel.
func (g *Geo) Sample(from, to string, r *rand.Rand) (time.Duration, bool) {
	local := g.Local
	if local == nil {
		local = Uniform(500*time.Microsecond, 2*time.Millisecond)
	}
	base, _ := local.Sample(from, to, r)
	a, b := g.dcOf(from), g.dcOf(to)
	if a == b {
		return base, true
	}
	wan, ok := g.WAN[[2]string{a, b}]
	if !ok {
		wan, ok = g.WAN[[2]string{b, a}]
	}
	if !ok {
		wan = g.DefaultWAN
	}
	if g.Jitter > 0 {
		wan += time.Duration(r.Int63n(int64(g.Jitter) + 1))
	}
	return base + wan, true
}

func (g *Geo) dcOf(id string) string {
	if dc, ok := g.DC[id]; ok {
		return dc
	}
	return g.DefaultDC
}
