// Command eccheck runs a concurrent read/write workload against a chosen
// consistency model, records the operation history (invocation and
// completion times, results), and checks it against formal consistency
// definitions — the Jepsen methodology on the simulated store:
//
//	eccheck -model strong     # linearizable: YES expected
//	eccheck -model eventual   # linearizable: NO expected (stale reads)
//	eccheck -model causal     # SC per key: YES, linearizable: usually NO
//
// Usage:
//
//	eccheck [-model all|eventual|session|causal|quorum|primary-sync|primary-async|strong]
//	        [-seed N] [-clients N] [-ops N]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/metrics"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the program: it parses args, writes the verdict table to stdout
// and errors to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eccheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		model   = fs.String("model", "all", "consistency model, or 'all'")
		seed    = fs.Int64("seed", 1, "simulation seed")
		clients = fs.Int("clients", 3, "concurrent clients")
		ops     = fs.Int("ops", 7, "operations per client")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	models := core.Models
	if *model != "all" {
		found := false
		for _, m := range core.Models {
			if m.String() == *model {
				models = []core.Model{m}
				found = true
			}
		}
		if !found {
			fmt.Fprintf(stderr, "eccheck: unknown model %q\n", *model)
			return 2
		}
	}

	table := &metrics.Table{Header: []string{
		"model", "ops recorded", "linearizable", "seq. consistent (per key)",
	}}
	for _, m := range models {
		h := record(m, *seed, *clients, *ops)
		table.AddRow(m.String(), len(h),
			verdict(check.Linearizable(h)),
			verdict(check.SequentiallyConsistent(h)))
	}
	fmt.Fprintf(stdout, "workload: %d clients × %d ops over 2 keys, seed %d\n\n", *clients, *ops, *seed)
	fmt.Fprint(stdout, table.String())
	fmt.Fprintln(stdout, "\n(linearizable ⇒ sequentially consistent; eventual models may satisfy neither,")
	fmt.Fprintln(stdout, " because even one client's view can go backwards between replicas)")
	return 0
}

func verdict(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

// record drives clients concurrently and returns the completed history.
func record(m core.Model, seed int64, nClients, opsEach int) check.History {
	c := core.New(core.Options{Model: m, Seed: seed, AntiEntropyInterval: 200 * time.Millisecond})
	var h check.History
	vcount := 0
	for ci := 0; ci < nClients; ci++ {
		ci := ci
		cl := c.NewClient(fmt.Sprintf("cl%d", ci))
		var loop func(i int)
		loop = func(i int) {
			if i >= opsEach {
				return
			}
			key := fmt.Sprintf("k%d", (ci+i)%2)
			start := c.Now()
			if (ci+i)%3 == 0 {
				vcount++
				val := fmt.Sprintf("v%d-%d", ci, vcount)
				cl.Put(key, []byte(val), func(r core.PutResult) {
					if r.Err == nil {
						h = append(h, check.Op{
							Kind: check.Write, Key: key, Value: val, OK: true,
							Start: start, End: c.Now(), Client: cl.ID(),
						})
					}
					loop(i + 1)
				})
			} else {
				cl.Get(key, func(r core.GetResult) {
					if r.Err == nil {
						op := check.Op{Kind: check.Read, Key: key, Start: start, End: c.Now(), Client: cl.ID()}
						if v, ok := r.Value(); ok {
							op.Value = string(v)
							op.OK = true
						}
						h = append(h, op)
					}
					loop(i + 1)
				})
			}
		}
		c.At(2*time.Second+time.Duration(ci)*3*time.Millisecond, func() { loop(0) })
	}
	c.Run(10 * time.Minute)
	return h
}
