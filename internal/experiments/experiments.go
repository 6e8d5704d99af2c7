// Package experiments implements the evaluation suite E1–E12 defined in
// DESIGN.md. The tutorial this repository reproduces has no measured
// evaluation of its own, so each experiment turns one of its qualitative
// claims into a measured table or figure; EXPERIMENTS.md records the
// claimed shape versus what these runs produce.
//
// Every experiment is a pure function of its seed: it builds a simulated
// cluster, drives a workload, and returns formatted results. cmd/ecbench
// prints them with each one's wall time; the TestE*Shape tests run each
// one and check its claimed shape.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/metrics"
)

// Result is one experiment's output.
type Result struct {
	// ID is the experiment id (e.g. "E1").
	ID string
	// Title names the table/figure.
	Title string
	// Claim is the tutorial claim under test.
	Claim string
	// Tables holds table-style output.
	Tables []*metrics.Table
	// Series holds figure-style output (one line per series).
	Series []metrics.Series
	// Notes carries caveats and parameters.
	Notes string
}

// String renders the result for the terminal.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	fmt.Fprintf(&b, "Claim: %s\n\n", r.Claim)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, s := range r.Series {
		fmt.Fprintf(&b, "series %s:\n", s.Name)
		for _, p := range s.Points {
			fmt.Fprintf(&b, "  x=%-12.4g y=%.6g\n", p.X, p.Y)
		}
		b.WriteByte('\n')
	}
	if r.Notes != "" {
		fmt.Fprintf(&b, "notes: %s\n", r.Notes)
	}
	return b.String()
}

// Runner is an experiment entry point.
type Runner struct {
	ID   string
	Name string
	Run  func(seed int64) Result
}

// All lists every experiment in order.
func All() []Runner {
	return []Runner{
		{"E1", "consistency-latency", E1ConsistencyLatency},
		{"E2", "pbs-staleness", E2PBS},
		{"E3", "quorum-sweep", E3QuorumSweep},
		{"E4", "anti-entropy", E4AntiEntropy},
		{"E5", "crdt-cost", E5CRDT},
		{"E6", "conflict-resolution", E6ConflictResolution},
		{"E7", "partition-availability", E7Partition},
		{"E8", "session-guarantees", E8SessionGuarantees},
		{"E9", "replication-throughput", E9ReplicationThroughput},
		{"E10", "sla-utility", E10SLA},
		{"E11", "chaos-violations", E11ChaosViolations},
		{"E12", "resilience", E12Resilience},
	}
}

// Lookup finds a runner by id (case-insensitive) or name.
func Lookup(id string) (Runner, bool) {
	for _, r := range All() {
		if strings.EqualFold(r.ID, id) || strings.EqualFold(r.Name, id) {
			return r, true
		}
	}
	return Runner{}, false
}

// ms converts a duration to float milliseconds for series points.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
