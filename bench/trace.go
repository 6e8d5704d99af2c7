package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Parent 0 marks the root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer records spans in memory; they are written out when the run
// ends. Spans are recorded from the benchmark's own files, around its
// calls into the program; spans inside the program are a later change.
// A nil tracer records nothing, which is how the untraced phases run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartNs: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed duration minus the part
// of each span's interval that its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, upto := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, upto), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[s.Name] += time.Duration(s.EndNs - s.StartNs - covered)
	}
	return self
}

// traceFile is what <workload>.trace.json holds.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Host     map[string]string  `json:"host"`
	SelfMs   map[string]float64 `json:"self_ms"`
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64, host map[string]string) error {
	f := traceFile{Workload: workload, Seed: seed, Host: host, SelfMs: map[string]float64{}, Spans: t.spans}
	for name, d := range t.selfTimes() {
		f.SelfMs[name] = ms(d)
	}
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
