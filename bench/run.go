package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	wl      workload
	seed    int64
	seconds float64 // measured time of the whole run, split over rounds and phases
	trace   bool
	outDir  string // trace files and the temporary data directory go here
	cpu     int    // the CPU the process is pinned to, for the fingerprint
	keysCap int    // bench_test.go only: preload at most this many keys (0 = all)
}

// result is what a run reports.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	FirstErr  string             `json:"first_error,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples is the number of latency samples behind each percentile.
	Samples map[string]int    `json:"samples,omitempty"`
	Host    map[string]string `json:"host"`
	Notes   []string          `json:"notes,omitempty"`
	// Budget is the traced run's table of closed-loop latency against
	// isolated layer costs, one line per operation type.
	Budget []string `json:"budget,omitempty"`
}

// phasePlan splits the run's measured seconds. An untraced run makes
// rounds of one paced phase on a fresh cluster each, and reports the
// median over rounds; a traced run makes one round of (paced, closed,
// traced). A paced phase of an untraced run is nominally 10 s, two whole
// checkpoint cycles of a durable node (README.md, noise source 4), so the
// contract's 20 s give two rounds.
func phasePlan(cfg runConfig) (rounds int, phase time.Duration) {
	if cfg.trace {
		return 1, time.Duration(cfg.seconds / 4 * float64(time.Second))
	}
	rounds = max(1, int(cfg.seconds/10+0.5))
	return rounds, time.Duration(cfg.seconds / float64(rounds) * float64(time.Second))
}

// round is one cluster, set up and ready for timed traffic.
type round struct {
	cfg     runConfig
	dir     string
	cl      *cluster
	lg      *loadgen
	setup   time.Duration
	retried int64 // puts the preload had to repeat
}

// startRound boots a cluster and brings it to the state in which timing
// starts: every key loaded, replication traffic died down, one warm-up
// of the workload's own traffic done.
func startRound(cfg runConfig, dataRoot string, n int) (*round, error) {
	t0 := time.Now()
	rd := &round{cfg: cfg, dir: filepath.Join(dataRoot, fmt.Sprintf("round%d", n))}
	if err := os.MkdirAll(rd.dir, 0o755); err != nil {
		return nil, err
	}
	seed := cfg.seed*100 + int64(n)
	cl, err := bootCluster(cfg.wl, rd.dir, seed)
	if err != nil {
		return nil, err
	}
	rd.cl = cl
	keys := cfg.wl.keys
	if cfg.keysCap > 0 && keys > cfg.keysCap {
		keys = cfg.keysCap
	}
	rd.lg, err = newLoadgen(cfg.wl, keys, cl.servers[0].Addr(), seed)
	if err != nil {
		rd.close()
		return nil, err
	}
	rd.retried = rd.lg.preload()
	settle, warm := 500*time.Millisecond, time.Second
	if cfg.keysCap > 0 {
		settle, warm = 100*time.Millisecond, 200*time.Millisecond
	}
	if err := cl.quiesce(settle); err != nil {
		rd.close()
		return nil, err
	}
	if _, err := rd.lg.paced(seed<<8|1, warm, 0); err != nil {
		rd.close()
		return nil, err
	}
	rd.setup = time.Since(t0)
	return rd, nil
}

// finish reads every key back and tears the round down. Quorum
// workloads read through node1, which must assemble R=2 answers that
// intersect every W=2 acknowledged write; gossip reads node0, the node
// the writes were local to.
func (rd *round) finish() error {
	defer rd.close()
	node := 1
	if rd.cfg.wl.model == "gossip" {
		node = 0
	}
	return rd.lg.verify(rd.cl.servers[node].Addr())
}

func (rd *round) close() {
	if rd.lg != nil {
		rd.lg.close()
	}
	rd.cl.close()
	os.RemoveAll(rd.dir)
}

// allocs is the allocator's cumulative counts, read from runtime/metrics
// (no stop-the-world, unlike runtime.ReadMemStats).
type allocs struct{ objects, bytes uint64 }

func readAllocs() allocs {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return allocs{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only on a bad pointer
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// windowLen is the slice of a closed-loop phase over which rate and CPU
// per operation are computed before a decile is taken across slices (see
// best).
const windowLen = 250 * time.Millisecond

// window is one slice of a closed-loop phase.
type window struct {
	opsPerSec float64
	cpuUsOp   float64
}

// watch runs fn and returns what each windowLen slice of it saw: the
// operations completed (read from done) and the CPU they took.
func watch(done *atomic.Int64, fn func()) []window {
	stop := make(chan struct{})
	out := make(chan []window, 1)
	go func() {
		t := time.NewTicker(windowLen)
		defer t.Stop()
		var ws []window
		at, ops, cpu := time.Now(), done.Load(), cpuTime()
		for {
			select {
			case <-t.C:
				at1, ops1, cpu1 := time.Now(), done.Load(), cpuTime()
				if n := ops1 - ops; n > 0 {
					ws = append(ws, window{
						opsPerSec: float64(n) / at1.Sub(at).Seconds(),
						cpuUsOp:   float64((cpu1 - cpu).Microseconds()) / float64(n),
					})
				}
				at, ops, cpu = at1, ops1, cpu1
			case <-stop:
				out <- ws
				return
			}
		}
	}()
	fn()
	close(stop)
	return <-out
}

// best returns the value a tenth of the way in from the good end of vs:
// the 90th percentile when higher is better, else the 10th. The closed
// loop's rate and CPU per operation are the best decile over windowLen
// slices. The host only ever slows the process down, for a fraction of a
// second or for minutes (README.md, noise source 5), so the fast tail of
// the slices is the program and the rest is the host. What the program
// does to itself less often than once a slice - a checkpoint stall, an
// anti-entropy burst - falls out of the decile too; the means, p99s and
// loadgen.closed_max_gap_ms report those.
func best(vs []float64, higher bool) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if higher {
		return pctl(s, 0.9)
	}
	return pctl(s, 0.1)
}

// run executes one workload and returns its metrics.
func run(cfg runConfig) (result, error) {
	res := result{Workload: cfg.wl.name, Seed: cfg.seed, Trace: cfg.trace, Metrics: map[string]float64{}, Samples: map[string]int{}}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return res, err
	}
	if err := checkFreeSpace(cfg.outDir); err != nil {
		return res, err
	}
	dataRoot, err := os.MkdirTemp(cfg.outDir, "data-")
	if err != nil {
		return res, err
	}
	removeOnSignal(dataRoot)
	defer os.RemoveAll(dataRoot)
	res.Host = hostFingerprint(dataRoot, cfg.cpu)

	if cfg.trace {
		err = runTraced(cfg, dataRoot, &res)
	} else {
		err = runUntraced(cfg, dataRoot, &res)
	}
	return res, err
}

func (res *result) count(lg *loadgen) {
	res.Attempted += lg.attempted.Load()
	res.Failed += lg.failed.Load()
	if e, ok := lg.firstErr.Load().(string); ok && res.FirstErr == "" {
		res.FirstErr = e
	}
}

// runUntraced measures the end-to-end metrics: rounds of one open-loop
// phase on a fresh cluster each. Every metric is a whole-phase total per
// operation (or the set-up time) and takes the median over rounds. None
// is timed inside the phase: throughput and CPU per operation followed
// the host's slow spells beyond any bound the contract allows and are
// per-layer metrics of the traced run (README.md, End-to-end metrics).
func runUntraced(cfg runConfig, dataRoot string, res *result) error {
	rounds, phase := phasePlan(cfg)
	var setup, objects, kb, peer []float64
	for n := 0; n < rounds; n++ {
		rd, err := startRound(cfg, dataRoot, n)
		if err != nil {
			return err
		}
		lg := rd.lg
		seed := cfg.seed*100 + int64(n)

		// The scrapes sit outside the allocation counts: they allocate.
		before, err := rd.cl.scrape()
		if err != nil {
			rd.close()
			return err
		}
		a0 := readAllocs()
		pr, err := lg.paced(seed<<8|2, phase, 0)
		a1 := readAllocs()
		if err != nil {
			rd.close()
			return err
		}
		after, err := rd.cl.scrape()
		if err != nil {
			rd.close()
			return err
		}

		err = rd.finish()
		res.count(lg)
		if err != nil {
			return err
		}
		ops := float64(pr.ops)
		setup = append(setup, rd.setup.Seconds())
		objects = append(objects, float64(a1.objects-a0.objects)/ops)
		kb = append(kb, float64(a1.bytes-a0.bytes)/1024/ops)
		peer = append(peer, (sum(after, "ec_transport_bytes_sent_total")-sum(before, "ec_transport_bytes_sent_total"))/ops)
		res.Notes = append(res.Notes, fmt.Sprintf("round %d: setup %.2f s; paced %d ops, p50 %.4f ms, p99 %.4f ms, generator late p50 %.4f ms",
			n, rd.setup.Seconds(), pr.ops, pctl(pr.latency, 0.5), pctl(pr.latency, 0.99), pctl(pr.late, 0.5)))
		if rd.retried > 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("round %d: FLAG the preload repeated %d puts that timed out", n, rd.retried))
		}
		if late := pctl(pr.late, 0.5); late > 0.1 {
			res.Notes = append(res.Notes, fmt.Sprintf("round %d: FLAG generator ran late (p50 %.3f ms > 0.1 ms): paced latencies include the lateness", n, late))
		}
		runtime.GC() // the finished cluster is garbage: the next round should not pay for it
	}
	m := res.Metrics
	m["setup_s"] = median(setup)
	m["allocs_per_op"] = median(objects)
	m["alloc_kb_per_op"] = median(kb)
	m["peer_bytes_per_op"] = median(peer)
	return nil
}
