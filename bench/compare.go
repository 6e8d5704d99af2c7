package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// column gathers one metric of one workload over a set of runs.
func column(set []result, workload, metric string) []float64 {
	var vs []float64
	for _, r := range set {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			vs = append(vs, v)
		}
	}
	return vs
}

func workloadsOf(set []result) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range set {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			out = append(out, r.Workload)
		}
	}
	return out
}

// printSpread prints, per workload and metric, the median and quartiles
// over the set's runs and the spread the contract checks: the distance
// between the quartiles as a share of the median.
func printSpread(set []result) {
	for _, wl := range workloadsOf(set) {
		fmt.Printf("spread workload=%s runs=%d\n", wl, len(column(set, wl, declared(set[0].Trace)[0].name)))
		for _, d := range declared(set[0].Trace) {
			vs := column(set, wl, d.name)
			if len(vs) == 0 {
				continue
			}
			med := median(vs)
			q1, q3 := quartiles(vs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			flag := ""
			if d.bound > 0 && d.name != "setup_s" && spread > d.bound/3 {
				flag = "  > bound/3"
			}
			fmt.Printf("spread %-32s median %12.4f  q1 %12.4f  q3 %12.4f  iqr/median %6.2f%%  bound %4.0f%%%s\n",
				d.name, med, q1, q3, 100*spread, 100*d.bound, flag)
		}
	}
}

func loadSet(path string) ([]result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set []result
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// compareSets reads two sets of untraced runs of the same code and
// reports, per workload and end-to-end metric, whether b's median is
// worse than a's by more than the metric's bound. It returns the
// process exit code.
func compareSets(pathA, pathB string) int {
	a, err := loadSet(pathA)
	if err != nil {
		fatalf("%v", err)
	}
	b, err := loadSet(pathB)
	if err != nil {
		fatalf("%v", err)
	}
	code := 0
	names := workloadsOf(a)
	sort.Strings(names)
	for _, wl := range names {
		for _, d := range endToEnd {
			va, vb := column(a, wl, d.name), column(b, wl, d.name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("compare %-18s %-16s missing from one set\n", wl, d.name)
				code = 1
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.bound {
				verdict = "WORSE THAN BOUND"
				code = 1
			}
			fmt.Printf("compare %-18s %-16s a %12.4f (n=%d)  b %12.4f (n=%d)  worse by %+6.2f%%  bound %2.0f%%  %s\n",
				wl, d.name, ma, len(va), mb, len(vb), 100*worse, 100*d.bound, verdict)
		}
	}
	return code
}
