// Command bench is the repo benchmark: it boots a 3-node cluster in this
// process, drives one workload through the public client API, checks
// the outputs, and prints every metric by name with its unit. README.md
// explains the design; BENCHMARK.json declares workloads, metrics and
// bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func main() {
	name := flag.String("workload", "", "workload to run, or \"all\"")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same operation sequence")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	out := flag.String("out", "out", "directory for trace files and the temporary data directory")
	repeat := flag.Int("repeat", 1, "runs per workload, with seeds seed, seed+1, ...; prints median and quartiles")
	save := flag.String("save", "", "with -repeat: write the set of runs to this file")
	compare := flag.Bool("compare", false, "compare two -save files given as arguments; fail if an end-to-end median differs by more than its bound")
	flag.Parse()

	// One CPU, one P: this host's two vCPUs are at times scheduled onto
	// one physical CPU for seconds on end (a 2-thread spin loop
	// alternates between 17 and 33 ms per step, a 1-thread one stays at
	// 17), which moved every timed metric by 20-70% between identical
	// runs. A process that never needs the second vCPU holds still
	// (README.md, noise source 5).
	cpu, err := pinToOneCPU()
	if err != nil {
		fatalf("%v", err)
	}
	runtime.GOMAXPROCS(1)

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare a.json b.json")
		}
		os.Exit(compareSets(flag.Arg(0), flag.Arg(1)))
	}
	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if wl, ok := findWorkload(*name); ok {
		todo = []workload{wl}
	} else {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fatalf("unknown workload %q (want all or one of %s)", *name, strings.Join(names, ", "))
	}
	if *seconds < 1 || *repeat < 1 {
		fatalf("-seconds and -repeat must be at least 1")
	}

	ok := true
	var set []result
	for _, wl := range todo {
		for r := 0; r < *repeat; r++ {
			cfg := runConfig{wl: wl, seed: *seed + int64(r), seconds: *seconds, trace: *trace != 0, outDir: *out, cpu: cpu}
			res, err := run(cfg)
			if err != nil {
				fatalf("%s: %v", wl.name, err)
			}
			printResult(os.Stdout, res)
			ok = ok && res.Failed == 0
			set = append(set, res)
		}
	}
	if *repeat > 1 {
		printSpread(set)
	}
	if *save != "" {
		b, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(*save, b, 0o644)
		}
		if err != nil {
			fatalf("save: %v", err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// removeOnSignal deletes dir if the run is interrupted, the one exit
// path a deferred RemoveAll does not cover.
func removeOnSignal(dir string) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		os.RemoveAll(dir)
		os.Exit(130)
	}()
}

// declared returns the metrics a run of this kind must report.
func declared(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// printResult prints a run for people, then the contract's JSON object
// as the last line.
func printResult(w io.Writer, res result) {
	var host []string
	for k, v := range res.Host {
		host = append(host, k+"="+strings.ReplaceAll(v, " ", "_"))
	}
	sort.Strings(host)
	fmt.Fprintf(w, "host %s\n", strings.Join(host, " "))
	fmt.Fprintf(w, "run workload=%s seed=%d trace=%v attempted=%d failed=%d\n", res.Workload, res.Seed, res.Trace, res.Attempted, res.Failed)
	if res.FirstErr != "" {
		fmt.Fprintf(w, "first-error %s\n", res.FirstErr)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	for _, b := range res.Budget {
		fmt.Fprintf(w, "budget %s\n", b)
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, d := range declared(res.Trace) {
		v := res.Metrics[d.name]
		samples := ""
		if n := res.Samples[d.name]; n > 0 {
			samples = fmt.Sprintf("  (%d samples)", n)
		}
		fmt.Fprintf(w, "metric %-32s %14.4f %s%s\n", d.name, v, d.unit, samples)
		metrics[d.name] = mv{v, d.unit}
	}
	line, _ := json.Marshal(map[string]any{ // cannot fail: plain maps of numbers and strings
		"correct":   res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	fmt.Fprintf(w, "%s\n", line)
}
