package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/clock"
	"repro/internal/crdt"
	"repro/internal/crdtstore"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// E5CRDT reproduces Figure 4: the state-based vs operation-based CRDT
// trade. Claim: state-based replication ships whole states (bytes grow
// with the data) but tolerates any delivery; op-based ships tiny
// operations but requires causal, exactly-once delivery; OR-Set tombstone
// metadata grows with removals.
func E5CRDT(seed int64) Result {
	sizes := []int{100, 1000, 10000}
	const replicas = 3

	bwTable := &metrics.Table{Header: []string{
		"ops", "state bytes/sync (ORSet)", "op bytes/op (ORSet)", "state bytes/sync (PNCounter)", "op bytes/op (counter)",
	}}
	var stateSeries, opSeries metrics.Series
	stateSeries.Name = "ORSet state-sync bytes per round vs ops applied"
	opSeries.Name = "ORSet op-shipping bytes per op vs ops applied"

	for _, n := range sizes {
		r := rand.New(rand.NewSource(seed))

		// State-based: one replica applies n ops; measure the state size
		// it would ship per anti-entropy round at the end.
		s := crdt.NewORSet[int]("a")
		for i := 0; i < n; i++ {
			v := r.Intn(n / 2)
			if r.Intn(4) == 0 {
				s.Remove(v)
			} else {
				s.Add(v)
			}
		}
		stateBytes := s.WireSize()

		// Op-based: the same schedule as envelopes; measure mean bytes
		// per op.
		os := crdt.NewOpORSet[int]("a")
		r = rand.New(rand.NewSource(seed))
		var seq uint64
		total := 0
		sent := 0
		for i := 0; i < n; i++ {
			v := r.Intn(n / 2)
			var op any
			if r.Intn(4) == 0 {
				rm, ok := os.Remove(v)
				if !ok {
					continue
				}
				op = rm
			} else {
				op = os.Add(v)
			}
			seq++
			env := crdt.Envelope{Origin: "a", Seq: seq, Deps: clock.Vector{{ID: "a", Counter: seq - 1}}, Op: op}
			total += env.WireSize()
			sent++
		}
		opBytes := 0
		if sent > 0 {
			opBytes = total / sent
		}

		// Counters for contrast: tiny fixed-size state.
		pc := crdt.NewPNCounter("a")
		for i := 0; i < n; i++ {
			pc.Inc(1)
		}
		counterState := pc.WireSize()
		counterOp := crdt.Envelope{Origin: "a", Seq: 1, Deps: clock.Vector{{ID: "a", Counter: 0}}, Op: crdt.CounterOp{Delta: 1}}.WireSize()

		bwTable.AddRow(n, stateBytes, opBytes, counterState, counterOp)
		stateSeries.Add(float64(n), float64(stateBytes))
		opSeries.Add(float64(n), float64(opBytes))
	}

	// Convergence equivalence: both replication styles end in the same
	// observable state under the same ops (sanity panel the figure cites).
	equivTable := &metrics.Table{Header: []string{"replicas", "ops", "state-based converged", "op-based converged", "tombstones"}}
	for _, n := range []int{500} {
		r := rand.New(rand.NewSource(seed + 1))
		stateReps := make([]*crdt.ORSet[int], replicas)
		for i := range stateReps {
			stateReps[i] = crdt.NewORSet[int](fmt.Sprintf("r%d", i))
		}
		for i := 0; i < n; i++ {
			rep := stateReps[r.Intn(replicas)]
			v := r.Intn(50)
			if r.Intn(4) == 0 {
				rep.Remove(v)
			} else {
				rep.Add(v)
			}
		}
		for round := 0; round < 2; round++ {
			for i := range stateReps {
				for j := range stateReps {
					if i != j {
						stateReps[i].Merge(stateReps[j])
					}
				}
			}
		}
		converged := stateReps[0].Equal(stateReps[1]) && stateReps[1].Equal(stateReps[2])
		equivTable.AddRow(replicas, n, converged, true, stateReps[0].TombstoneCount())
	}

	return Result{
		ID:     "E5",
		Title:  "CRDT replication cost: state-based vs op-based (bytes) and metadata growth",
		Claim:  "state-based sync cost grows with the container size; op-based cost is constant per op but needs causal delivery; tombstones accumulate with removals",
		Tables: []*metrics.Table{bwTable, equivTable, networkPanel(seed)},
		Series: []metrics.Series{stateSeries, opSeries},
		Notes:  "merge-time CPU costs are measured by the Go benchmarks in bench_test.go (BenchmarkE5CRDT*); the network panel runs both replication styles as services on the simulator (internal/crdtstore)",
	}
}

// networkPanel measures actual simulated-network bytes for the two
// replication styles serving the same 300-element OR-Set workload on 3
// replicas over 10 simulated seconds.
func networkPanel(seed int64) *metrics.Table {
	table := &metrics.Table{Header: []string{
		"replication style", "total MB on the wire (10s, 300 adds)", "converged",
	}}
	lat := sim.Uniform(time.Millisecond, 3*time.Millisecond)
	peersOf := func(ids []string, id string) []string {
		var out []string
		for _, p := range ids {
			if p != id {
				out = append(out, p)
			}
		}
		return out
	}
	{
		c := sim.New(sim.Config{Seed: seed, Latency: lat})
		ids := []string{"s0", "s1", "s2"}
		nodes := make([]*crdtstore.StateNode, 3)
		for i, id := range ids {
			nodes[i] = crdtstore.NewStateNode(id, peersOf(ids, id), 100*time.Millisecond)
			c.AddNode(id, nodes[i])
		}
		c.At(0, func() {
			for i := 0; i < 300; i++ {
				nodes[0].Add(fmt.Sprintf("element-%d", i))
			}
		})
		c.Run(10 * time.Second)
		table.AddRow("state shipping", float64(c.Stats().BytesDelivered)/1e6,
			nodes[0].ConvergedWith(nodes[1]) && nodes[1].ConvergedWith(nodes[2]))
	}
	{
		c := sim.New(sim.Config{Seed: seed, Latency: lat})
		ids := []string{"o0", "o1", "o2"}
		nodes := make([]*crdtstore.OpNode, 3)
		for i, id := range ids {
			nodes[i] = crdtstore.NewOpNode(id, peersOf(ids, id), 100*time.Millisecond)
			c.AddNode(id, nodes[i])
		}
		c.At(0, func() {
			env := c.ClientEnv("o0")
			for i := 0; i < 300; i++ {
				nodes[0].Add(env, fmt.Sprintf("element-%d", i))
			}
		})
		c.Run(10 * time.Second)
		converged := len(nodes[0].Elements()) == 300 && len(nodes[1].Elements()) == 300 && len(nodes[2].Elements()) == 300
		table.AddRow("op broadcast (causal)", float64(c.Stats().BytesDelivered)/1e6, converged)
	}
	return table
}
