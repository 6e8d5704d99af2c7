package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sync/atomic"
	"testing"
)

// benchmarkFile mirrors ../BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var testCPU int

func TestMain(m *testing.M) {
	cpu, err := pinToOneCPU()
	if err != nil {
		panic(err)
	}
	testCPU = cpu
	runtime.GOMAXPROCS(1)
	os.Exit(m.Run())
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestDeclarationsMatchBenchmarkFile keeps the tables in workload.go and
// BENCHMARK.json equal and inside the contract's limits.
func TestDeclarationsMatchBenchmarkFile(t *testing.T) {
	f := loadBenchmarkFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(f.Workloads) != len(workloads) || len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workload.go (want 2 to 8, equal)", len(f.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, workload.go has %q (or their why differs)", i, f.Workloads[i].Name, w.name)
		}
		if !name.MatchString(w.name) || seen[w.name] || len(w.why) > 200 {
			t.Errorf("workload %q: bad or repeated name, or why longer than 200", w.name)
		}
		seen[w.name] = true
	}
	check := func(kind string, got []declaredMetric, want []metricDef, limit int, bounded bool) {
		if len(got) != len(want) || len(want) < 1 || len(want) > limit {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in workload.go (want 1 to %d, equal)", kind, len(got), len(want), limit)
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, workload.go has %+v", kind, i, g, d)
			}
			if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s %q: bad or repeated name, or bad unit %q", kind, d.name, d.unit)
			}
			seen[d.name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s %q: bound must be in (0, 0.25] and equal in both places", kind, d.name)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %q: a per-layer metric has no bound", kind, d.name)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, 16, true)
	check("per_layer", f.PerLayer, perLayer, 128, false)
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of [1, 60]", f.RunSeconds)
	}
}

// TestWorkloadsReportDeclaredMetrics runs every workload, untraced and
// traced, with every phase cut to 0.5 s and the preload to 500 keys, and
// checks that the last printed line carries exactly the declared metrics
// with their units, that no operation failed, and that the nanosleep
// pacer kept time.
func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			seconds := 0.5
			if trace {
				seconds = 2
			}
			dir := t.TempDir()
			res, err := run(runConfig{wl: wl, seed: 1, seconds: seconds, trace: trace, outDir: dir, keysCap: 500, cpu: testCPU})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %s", wl.name, trace, res.Failed, res.Attempted, res.FirstErr)
			}
			var out bytes.Buffer
			printResult(&out, res)
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var last struct {
				Correct   bool  `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&last); err != nil {
				t.Fatalf("%s trace=%v: last line is not the contract's object: %v", wl.name, trace, err)
			}
			want := declared(trace)
			if len(last.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", wl.name, trace, len(last.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := last.Metrics[d.name]
				if !ok || got.Value == nil || got.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q != %q", wl.name, trace, d.name, got.Unit, d.unit)
				}
			}
			if trace {
				if late := res.Metrics["loadgen.late_p50_ms"]; late > 0.1 {
					t.Errorf("%s: pacer ran late: loadgen.late_p50_ms = %.3f > 0.1", wl.name, late)
				}
				checkTraceFile(t, filepath.Join(dir, wl.name+".trace.json"))
			}
		}
	}
}

// checkTraceFile checks that a trace holds one root span and that every
// other span's parent exists and every span has ended.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f traceFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	ids := map[int]bool{}
	for _, s := range f.Spans {
		ids[s.ID] = true
	}
	roots := 0
	for _, s := range f.Spans {
		if s.Parent == 0 {
			roots++
		} else if !ids[s.Parent] {
			t.Errorf("%s: span %d (%s) has no parent %d", path, s.ID, s.Name, s.Parent)
		}
		if s.EndNs < s.StartNs {
			t.Errorf("%s: span %d (%s) never ended", path, s.ID, s.Name)
		}
	}
	if roots != 1 {
		t.Errorf("%s: %d root spans, want 1", path, roots)
	}
}

// TestCheckVersions pins verify's rule: the last acknowledged put must
// be among the versions read back, a put that returned an error may stay
// beside it as a sibling, and a put that a later acknowledged one
// superseded may not.
func TestCheckVersions(t *testing.T) {
	wl := workloads[0]
	g := &loadgen{wl: wl, keys: 8, acked: make([]atomic.Uint32, 8), tried: make([]atomic.Uint32, 8), unacked: map[int32][]uint32{}}
	g.pad = make([]byte, 2*wl.valueSize)
	value := func(key int32, seq uint32) []byte {
		b := make([]byte, wl.valueSize)
		g.fillValue(b, key, int(key)%conns, seq)
		return b
	}
	// Key 3: put 5 acknowledged, put 7 timed out, its repeat 9
	// acknowledged, put 11 attempted last and timed out.
	g.acked[3].Store(9)
	g.tried[3].Store(11)
	g.unacked[3] = []uint32{7, 11}
	for _, c := range []struct {
		name string
		seqs []uint32
		ok   bool
	}{
		{"last acknowledged", []uint32{9}, true},
		{"later attempt", []uint32{11}, true},
		{"unacknowledged sibling beside the last acknowledged", []uint32{7, 9}, true},
		{"only the unacknowledged sibling", []uint32{7}, false},
		{"superseded put resurfaced", []uint32{5, 9}, false},
		{"never attempted", []uint32{12}, false},
		{"nothing", nil, false},
	} {
		var vs [][]byte
		for _, s := range c.seqs {
			vs = append(vs, value(3, s))
		}
		if err := g.checkVersions(3, vs); (err == nil) != c.ok {
			t.Errorf("%s: checkVersions(%v) = %v, want ok=%v", c.name, c.seqs, err, c.ok)
		}
	}
	if err := g.checkVersions(3, [][]byte{value(5, 9)}); err == nil {
		t.Error("another key's value passed")
	}
}
