// Command ecdemo plays the tutorial's core narrative as a scripted
// scenario: the same sequence of writes and a network partition, run
// against each consistency model, printing what clients on each side of
// the partition observe over time.
//
// Usage:
//
//	ecdemo                   # run the scenario for every model
//	ecdemo -model causal     # one model
//	ecdemo -seed 7           # different deterministic universe
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the program: it parses args, plays the scenario to stdout,
// writes errors to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ecdemo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		model = fs.String("model", "", "consistency model (eventual|session|causal|quorum|primary-async|primary-sync|strong); empty = all")
		seed  = fs.Int64("seed", 1, "simulation seed")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	models := core.Models
	if *model != "" {
		found := false
		for _, m := range core.Models {
			if m.String() == *model {
				models = []core.Model{m}
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(stderr, "ecdemo: unknown model %q\n", *model)
			return 2
		}
	}

	for _, m := range models {
		playScenario(stdout, m, *seed)
		fmt.Fprintln(stdout)
	}
	return 0
}

// playScenario: two clients, one on each side of a partition that opens
// at t=5s and heals at t=12s. Both write the same key during the
// partition; we watch what each reads before, during, and after.
func playScenario(w io.Writer, m core.Model, seed int64) {
	fmt.Fprintf(w, "━━━ model: %s ━━━\n", m)
	c := core.New(core.Options{Model: m, Nodes: 5, Seed: seed})
	nodes := c.Nodes()
	left := c.NewClient("alice")
	right := c.NewClient("bob")
	left.Prefer(nodes[0])
	right.Prefer(nodes[len(nodes)-1])

	log := func(who, what string) {
		fmt.Fprintf(w, "  t=%-8v %-6s %s\n", c.Now().Round(time.Millisecond), who, what)
	}
	read := func(cl *core.Client, who string) {
		cl.Get("status", func(r core.GetResult) {
			switch {
			case r.Err != nil:
				log(who, "read status -> UNAVAILABLE")
			case len(r.Values) == 0:
				log(who, "read status -> (missing)")
			case len(r.Values) == 1:
				log(who, fmt.Sprintf("read status -> %q", r.Values[0]))
			default:
				log(who, fmt.Sprintf("read status -> %d SIBLINGS %q", len(r.Values), r.Values))
			}
		})
	}
	write := func(cl *core.Client, who, val string) {
		cl.Put("status", []byte(val), func(r core.PutResult) {
			if r.Err != nil {
				log(who, fmt.Sprintf("write %q -> FAILED (%v)", val, r.Err))
			} else {
				log(who, fmt.Sprintf("write %q -> ok", val))
			}
		})
	}

	c.At(3*time.Second, func() { write(left, "alice", "hello") })
	c.At(4*time.Second, func() { read(right, "bob") })

	c.At(5*time.Second, func() {
		log("net", "PARTITION: {"+nodes[0]+","+nodes[1]+",alice} | {rest,bob}")
		c.Sim().Partition(
			[]string{nodes[0], nodes[1], "alice"},
			append(append([]string{}, nodes[2:]...), "bob"),
		)
	})
	c.At(6*time.Second, func() { write(left, "alice", "from-alice") })
	c.At(6*time.Second, func() { write(right, "bob", "from-bob") })
	c.At(8*time.Second, func() { read(left, "alice") })
	c.At(8*time.Second, func() { read(right, "bob") })

	c.At(12*time.Second, func() {
		log("net", "HEAL")
		c.Sim().Heal()
	})
	c.At(16*time.Second, func() { read(left, "alice") })
	c.At(16*time.Second, func() { read(right, "bob") })

	c.Run(40 * time.Second)
}
