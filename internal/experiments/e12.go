package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/sim"
)

// E12Resilience measures what the resilience layer — retries with
// jittered backoff, the quorum coordinator's hedged reads, phi-accrual
// failure detection, breaker-guarded failover — buys under faults, and what it
// must not cost. Claim: under partition storms and flaky networks,
// client-visible availability rises materially with the layer on
// (same seeds, same nemesis), while the consistency claims of each
// store hold exactly as they do with the layer off: availability
// mechanisms must never manufacture anomalies.
func E12Resilience(seed int64) Result {
	const runs = 8 // nemesis seeds per (store, schedule, mode) cell

	rc := chaos.RecordConfig{Stagger: 300 * time.Millisecond, OpsPerClient: 14}
	models := []core.Model{core.Quorum, core.Session, core.Strong}
	schedules := []chaos.Schedule{chaos.Halves(), chaos.FlakyOnly()}

	table := &metrics.Table{Header: []string{
		"schedule", "store", "resilience", "success rate", "failed", "timeout",
		"retries", "hedges", "failovers", "trips", "claim violations", "diverged",
	}}
	var series []metrics.Series
	for _, sched := range schedules {
		for _, m := range models {
			var sr metrics.Series
			sr.Name = fmt.Sprintf("success rate: %s under %s (x=0 off, x=1 on)", m, sched.Name)
			for i, pol := range []*resilience.Policy{nil, resilience.DefaultPolicy()} {
				spec := e12Spec(m, pol)
				var ok, failed, timeout int
				counters := map[string]int64{}
				violations, diverged := 0, 0
				for r := 0; r < runs; r++ {
					rep := chaos.Conformance(spec, sched, seed*1000+int64(r), rc)
					ok += rep.Stats.OK
					failed += rep.Stats.Failed
					timeout += rep.Stats.TimedOut
					addCounters(counters, rep.Resilience)
					if e12Violates(m, rep) {
						violations++
					}
					if !rep.Converged {
						diverged++
					}
				}
				total := ok + failed + timeout
				rate := 0.0
				if total > 0 {
					rate = float64(ok) / float64(total)
				}
				onOff := "off"
				if pol != nil {
					onOff = "on"
				}
				table.AddRow(
					sched.Name, m.String(), onOff,
					fmt.Sprintf("%.3f", rate),
					strconv.Itoa(failed), strconv.Itoa(timeout),
					strconv.FormatInt(counters["resilience.retries"], 10),
					strconv.FormatInt(counters["resilience.hedges"], 10),
					strconv.FormatInt(counters["resilience.failovers"], 10),
					strconv.FormatInt(counters["resilience.breaker_trips"], 10),
					fmt.Sprintf("%d/%d", violations, runs),
					fmt.Sprintf("%d/%d", diverged, runs),
				)
				sr.Add(float64(i), rate)
			}
			series = append(series, sr)
		}
	}

	return Result{
		ID:    "E12",
		Title: "Availability under faults with the resilience layer on vs off",
		Claim: "Retries, hedging, phi-accrual failure detection, and coordinator failover " +
			"materially raise client-op success rates under partition storms and flaky " +
			"networks, at zero cost in consistency: each store's claimed model holds in " +
			"every cell, on or off.",
		Tables: []*metrics.Table{table},
		Series: series,
		Notes: fmt.Sprintf(
			"%d nemesis seeds per cell, identical across modes; 4 clients x 14 ops, 300ms "+
				"stagger, 3s op timeout; quorum is N3/R2/W2 sloppy+read-repair (claims "+
				"convergence only), session claims MonotonicPerClient, strong claims "+
				"linearizability; counters are summed across the cell's runs", runs),
	}
}

// e12Spec builds a conformance StoreSpec for model m with the resilience
// layer configured by pol (nil = off).
func e12Spec(m core.Model, pol *resilience.Policy) chaos.StoreSpec {
	name := m.String()
	if pol != nil {
		name += "+res"
	}
	return chaos.StoreSpec{
		Name: name,
		Build: func(seed int64, latency sim.LatencyModel) chaos.System {
			return chaos.CoreSystem(m, core.Options{
				Nodes:               5,
				Seed:                seed,
				Latency:             latency,
				AntiEntropyInterval: 200 * time.Millisecond,
				ReadRepair:          true,
				SloppyQuorum:        m == core.Quorum,
				Resilience:          pol,
			})
		},
	}
}

// e12Violates checks the store's claimed consistency model against one
// report: session and strong claim session guarantees, strong also
// claims linearizability, and everything claims convergence after heal.
func e12Violates(m core.Model, rep chaos.Report) bool {
	if !rep.Converged {
		return true
	}
	switch m {
	case core.Strong:
		return !rep.Linearizable || !rep.Monotonic
	case core.Session:
		return !rep.Monotonic
	default:
		return false
	}
}

// addCounters folds a rendered counter snapshot ("a=1 b=2") into acc.
func addCounters(acc map[string]int64, rendered string) {
	for _, tok := range strings.Fields(rendered) {
		name, val, ok := strings.Cut(tok, "=")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			continue
		}
		acc[name] += n
	}
}
