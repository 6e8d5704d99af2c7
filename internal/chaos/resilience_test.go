package chaos

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resilience"
	"repro/internal/sim"
)

// resilientSpec builds a core store with the resilience layer on, sized
// like the conformance suite's coreSpec.
func resilientSpec(m core.Model) StoreSpec {
	return StoreSpec{
		Name: m.String() + "+res",
		Build: func(seed int64, latency sim.LatencyModel) System {
			opts := core.Options{
				Nodes:               5,
				Seed:                seed,
				Latency:             latency,
				AntiEntropyInterval: 200 * time.Millisecond,
				ReadRepair:          true,
				SloppyQuorum:        m == core.Quorum,
				Resilience:          resilience.DefaultPolicy(),
			}
			if m == core.Causal {
				opts.Nodes = 3
			}
			return CoreSystem(m, opts)
		},
	}
}

// TestResilienceDeterministic asserts the resilience layer keeps the
// simulation a pure function of its seed: retries, hedges, failovers,
// and phi-accrual suspicion all draw on simulator randomness, so two
// identical runs must produce identical histories, stats, counter
// snapshots, and nemesis logs.
func TestResilienceDeterministic(t *testing.T) {
	spec := resilientSpec(core.Quorum)
	sched := Halves()
	a := Conformance(spec, sched, 42, RecordConfig{})
	b := Conformance(spec, sched, 42, RecordConfig{})
	if a.Resilience == "" {
		t.Fatal("resilience counters missing from report; coreSystem is not reporting them")
	}
	if a.Resilience != b.Resilience {
		t.Errorf("resilience counters differ across identical runs:\n  run A: %s\n  run B: %s",
			a.Resilience, b.Resilience)
	}
	if fmt.Sprintf("%+v", a.History) != fmt.Sprintf("%+v", b.History) {
		t.Error("histories differ across identical runs")
	}
	if a.Stats != b.Stats {
		t.Errorf("stats differ: %+v vs %+v", a.Stats, b.Stats)
	}
	if fmt.Sprintf("%v", a.Events) != fmt.Sprintf("%v", b.Events) {
		t.Error("nemesis event logs differ across identical runs")
	}
	if a.Linearizable != b.Linearizable || a.Monotonic != b.Monotonic || a.Converged != b.Converged {
		t.Error("verdicts differ across identical runs")
	}
}

// TestResilienceConformance runs resilience-enabled stores through the
// harsh schedules and asserts the layer does not cost correctness: the
// claimed consistency models still hold and replicas still converge.
func TestResilienceConformance(t *testing.T) {
	cases := []struct {
		spec      StoreSpec
		monotonic bool
	}{
		{resilientSpec(core.Eventual), false},
		{resilientSpec(core.Quorum), false},
		{resilientSpec(core.Session), true},
		{resilientSpec(core.Strong), true}, // also linearizable, asserted below
	}
	for _, sched := range []Schedule{Halves(), FlakyOnly()} {
		sched := sched
		for _, tc := range cases {
			tc := tc
			t.Run(fmt.Sprintf("%s/%s", tc.spec.Name, sched.Name), func(t *testing.T) {
				t.Parallel()
				for _, seed := range conformanceSeeds {
					rep := Conformance(tc.spec, sched, seed, RecordConfig{})
					t.Logf("%s res[%s]", rep.String(), rep.Resilience)
					if rep.Stats.Invoked == 0 {
						t.Fatalf("seed %d: no operations invoked", seed)
					}
					if !rep.Converged {
						t.Errorf("seed %d: replicas did not converge after heal: %s",
							seed, rep.Disagreement)
					}
					if tc.monotonic && !rep.Monotonic {
						t.Errorf("seed %d: session guarantees violated with resilience on", seed)
					}
					if tc.spec.Name == "strong+res" && !rep.Linearizable {
						t.Errorf("seed %d: linearizability violated with resilience on", seed)
					}
				}
			})
		}
	}
}
