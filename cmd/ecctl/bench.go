package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
)

// benchResult is what one `ecctl bench` run measured: the operations it
// issued, how many failed, and the latency quantiles of all of them.
type benchResult struct {
	Ops, Errors int
	P50, P99    time.Duration
}

// cmdBench drives closed-loop load against the cluster: -clients
// worker goroutines issue puts/gets back-to-back over -conns shared
// connections. Workers sharing a connection pipeline — each request is
// tagged with a sequence number and the responses demultiplex — which
// is exactly the fast path this binary exists to exercise: batched
// frames on the wire, concurrent dispatch on the server, and WAL
// group commit across the in-flight writes. It prints what it measured
// and returns it, with an error when any operation failed.
func cmdBench(args []string, stdout, stderr io.Writer) (benchResult, error) {
	fs := newFlags("bench", stderr)
	dir := stateDir(fs)
	workers := fs.Int("clients", 32, "concurrent worker goroutines")
	conns := fs.Int("conns", 4, "connections the workers share")
	dur := fs.Duration("duration", 5*time.Second, "measurement length")
	valSize := fs.Int("value", 128, "value size in bytes")
	keys := fs.Int("keys", 1000, "distinct keys")
	getFrac := fs.Float64("get", 0.5, "fraction of operations that are reads")
	node := fs.String("node", "", "target node (default: any reachable)")
	if err := fs.Parse(args); err != nil {
		return benchResult{}, err
	}
	st, err := loadState(*dir)
	if err != nil {
		return benchResult{}, err
	}
	if *workers < 1 || *conns < 1 || *conns > *workers {
		return benchResult{}, fmt.Errorf("need clients >= conns >= 1")
	}

	addr := ""
	if *node != "" {
		var ok bool
		if addr, ok = st.Peers[*node]; !ok {
			return benchResult{}, fmt.Errorf("unknown node %q", *node)
		}
	} else {
		c, id, err := dialAny(st)
		if err != nil {
			return benchResult{}, err
		}
		c.Close()
		addr = st.Peers[id]
	}

	clients := make([]*server.Client, *conns)
	for i := range clients {
		c, err := server.Dial(addr, fmt.Sprintf("bench-%d-%d", os.Getpid(), i))
		if err != nil {
			return benchResult{}, err
		}
		defer c.Close()
		clients[i] = c
	}

	value := make([]byte, *valSize)
	for i := range value {
		value[i] = byte('a' + i%26)
	}

	type result struct {
		ops, errs int
		lat       []time.Duration
	}
	results := make([]result, *workers)
	deadline := time.Now().Add(*dur)
	cpu0, cpuOK := serverCPU(st)
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clients[w%len(clients)]
			rng := rand.New(rand.NewSource(int64(w + 1)))
			r := &results[w]
			for time.Now().Before(deadline) {
				key := fmt.Sprintf("bench-%d", rng.Intn(*keys))
				start := time.Now()
				var err error
				if rng.Float64() < *getFrac {
					_, _, err = c.Get(key)
				} else {
					err = c.Put(key, value)
				}
				r.lat = append(r.lat, time.Since(start))
				r.ops++
				if err != nil {
					r.errs++
				}
			}
		}(w)
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)

	var ops, errs int
	var all []time.Duration
	for _, r := range results {
		ops += r.ops
		errs += r.errs
		all = append(all, r.lat...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	q := func(p float64) time.Duration {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return all[i].Round(10 * time.Microsecond)
	}
	fmt.Fprintf(stdout, "bench: model=%s node=%s clients=%d conns=%d value=%dB mix=%.0f%%get\n",
		st.Model, addr, *workers, *conns, *valSize, 100**getFrac)
	res := benchResult{Ops: ops, Errors: errs, P50: q(0.50), P99: q(0.99)}
	fmt.Fprintf(stdout, "bench: %d ops in %s = %.0f ops/sec (%d errors)\n",
		ops, elapsed.Round(time.Millisecond), float64(ops)/elapsed.Seconds(), errs)
	fmt.Fprintf(stdout, "bench: latency p50=%s p99=%s\n", res.P50, res.P99)
	if cpu1, ok := serverCPU(st); ok && cpuOK {
		busy := (cpu1 - cpu0).Seconds()
		fmt.Fprintf(stdout, "bench: server cpu %.2fs user+sys over %s = %.2f cores busy\n",
			busy, elapsed.Round(time.Millisecond), busy/elapsed.Seconds())
	}
	if errs > 0 {
		return res, fmt.Errorf("%d/%d operations failed", errs, ops)
	}
	return res, nil
}

// serverCPU sums user+sys CPU time consumed so far by the cluster's
// server processes, read from /proc/<pid>/stat. Sampled before and
// after a bench run, the delta says how many cores the servers kept
// busy — the number the shard sweep is supposed to move. Returns
// ok=false when no pid could be read (stopped cluster, or a platform
// without procfs), and bench just omits the utilization line.
func serverCPU(st *clusterState) (time.Duration, bool) {
	const userHZ = 100 // kernel USER_HZ: stat ticks per second
	var ticks uint64
	ok := false
	for _, pid := range st.PIDs {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			continue
		}
		// Fields after the parenthesised comm (which may itself contain
		// spaces): state is field 3, utime field 14, stime field 15.
		s := string(b)
		i := strings.LastIndexByte(s, ')')
		if i < 0 {
			continue
		}
		f := strings.Fields(s[i+1:])
		if len(f) < 13 {
			continue
		}
		utime, err1 := strconv.ParseUint(f[11], 10, 64)
		stime, err2 := strconv.ParseUint(f[12], 10, 64)
		if err1 != nil || err2 != nil {
			continue
		}
		ticks += utime + stime
		ok = true
	}
	return time.Duration(ticks) * time.Second / userHZ, ok
}
