// Command ecbench runs the evaluation suite (experiments E1–E12 from
// DESIGN.md) and prints each experiment's tables and series. E12's
// tables include the resilience layer's event counters (retries,
// failovers and breaker trips of the clients' failover sender, and the
// quorum coordinator's read hedges) exported through internal/metrics.
//
// Usage:
//
//	ecbench                  # run everything
//	ecbench -experiment E2   # one experiment by id ...
//	ecbench -experiment pbs-staleness   # ... or by name
//	ecbench -seed 7          # a different deterministic universe
//	ecbench -parallel        # run experiments on a worker pool
//	ecbench -list            # list experiments
//
// Every experiment is a pure function of its seed, so -parallel changes
// only wall-clock time: stdout is byte-identical to a serial run (wall
// times go to stderr).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("experiment", "", "experiment id (E1..E12) or name; empty = all")
		seed     = flag.Int64("seed", 1, "simulation seed")
		list     = flag.Bool("list", false, "list experiments and exit")
		parallel = flag.Bool("parallel", false, "run experiments concurrently (same output, less wall time)")
	)
	flag.Parse()

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-4s %s\n", r.ID, r.Name)
		}
		return
	}

	runners := experiments.All()
	if *exp != "" {
		r, ok := experiments.Lookup(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "ecbench: unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
		runners = []experiments.Runner{r}
	}

	if *parallel {
		start := time.Now()
		for _, res := range experiments.RunConcurrently(runners, *seed) {
			fmt.Println(res.String())
		}
		fmt.Fprintf(os.Stderr, "(%d experiments completed in %v wall time)\n",
			len(runners), time.Since(start).Round(time.Millisecond))
		return
	}

	for _, r := range runners {
		start := time.Now()
		res := r.Run(*seed)
		fmt.Println(res.String())
		fmt.Fprintf(os.Stderr, "(%s completed in %v wall time)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
}
