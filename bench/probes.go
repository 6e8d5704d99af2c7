package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/lsm"
	"repro/internal/quorum"
	"repro/internal/ring"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
)

// probeCalls is how many calls each probe times.
const probeCalls = 2048

// timeBatches times fn in batches of 16 calls, because one call of a
// sub-microsecond function is shorter than the clock can resolve, and
// returns the median nanoseconds per call.
func timeBatches(fn func(i int)) float64 {
	const batch = 16
	samples := make([]float64, 0, probeCalls/batch)
	for i := 0; i < probeCalls; i += batch {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			fn(i + j)
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/batch)
	}
	return median(samples)
}

// timeEach times every call of fn on its own and returns the median
// microseconds, for calls long enough to time singly.
func timeEach(calls int, fn func(i int)) float64 {
	samples := make([]float64, calls)
	for i := range samples {
		t0 := time.Now()
		fn(i)
		samples[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return median(samples)
}

// prober calls each layer's exported functions in isolation, with the
// workload's own key and value shapes, after the cluster has stopped.
// Each batch of calls is one span, probe.<layer>.<call>.
type prober struct {
	wl     workload
	names  []string
	value  []byte
	dir    string
	seed   int64
	tr     *tracer
	parent int
	out    map[string]float64
}

func (p *prober) span(name string, fn func()) {
	sp := p.tr.begin(p.parent, "probe."+name)
	fn()
	p.tr.end(sp)
}

// runProbes times every layer on every workload, also the layers the
// workload's cluster bypasses: a probe's cost depends on the workload's
// key and value shapes, not on its cluster, and the contract refuses a
// time that reads the same (0) on every run. What reads 0 where a layer
// is bypassed are the per-operation counters of the traced phase. A
// workload without a WAL probes it under the server's default policy,
// fsync=sync.
func runProbes(wl workload, lg *loadgen, dir string, seed int64, tr *tracer, parent int) (map[string]float64, error) {
	p := &prober{wl: wl, names: lg.names, dir: dir, seed: seed, tr: tr, parent: parent, out: map[string]float64{}}
	p.value = make([]byte, wl.valueSize)
	lg.fillValue(p.value, 0, 0, 1)
	p.frames()
	p.ring()
	p.kv()
	p.quorumLoopback()
	if err := p.wal(); err != nil {
		return nil, fmt.Errorf("wal probe: %w", err)
	}
	if err := p.lsm(); err != nil {
		return nil, fmt.Errorf("lsm probe: %w", err)
	}
	return p.out, nil
}

// frames times the client protocol's codec on the frames one operation
// of this workload puts on the wire: the request and the response, as
// the server builds them (a quorum get answers with the value twice, in
// Value and in Values).
func (p *prober) frames() {
	gen := newOpGen(p.seed, 0, len(p.names), p.wl.getFrac)
	const n = 64
	envs := make([]transport.Envelope, 0, 2*n)
	for i := 0; i < n; i++ {
		o := gen.next()
		req := server.Request{Seq: uint64(1000 + i), Op: "put", Key: p.names[o.key], Value: p.value}
		resp := server.Response{Seq: req.Seq, OK: true}
		if o.get {
			req.Op, req.Value = "get", nil
			resp.Found, resp.Value = true, p.value
			if p.wl.model == "quorum" {
				resp.Values = [][]byte{p.value}
			}
		}
		envs = append(envs,
			transport.Envelope{From: "bench-0", Msg: req},
			transport.Envelope{From: "node0", To: "bench-0", Msg: resp})
	}
	frames := make([][]byte, len(envs))
	for i, e := range envs {
		frames[i], _ = transport.AppendFrame(nil, e) // registered binary messages always encode
	}
	var buf []byte
	p.span("transport.AppendFrame", func() {
		p.out["transport.frame_encode_ns"] = 2 * timeBatches(func(i int) {
			buf, _ = transport.AppendFrame(buf[:0], envs[i%len(envs)])
		})
	})
	p.span("transport.DecodeFrame", func() {
		m0 := readAllocs().objects
		p.out["transport.frame_decode_ns"] = 2 * timeBatches(func(i int) {
			_, _, _ = transport.DecodeFrame(frames[i%len(frames)])
		})
		p.out["transport.frame_decode_allocs"] = 2 * float64(readAllocs().objects-m0) / probeCalls
	})
}

func (p *prober) ring() {
	r := ring.New([]string{"node0", "node1", "node2"}, ring.DefaultVirtualNodes)
	p.span("ring.Replicas", func() {
		p.out["ring.replicas_ns"] = timeBatches(func(i int) {
			r.Replicas(p.names[i%len(p.names)], 3)
		})
	})
}

func (p *prober) kv() {
	kv := storage.NewKV()
	for _, name := range p.names {
		kv.Put(name, p.value, nil)
	}
	rng := rand.New(rand.NewSource(p.seed))
	p.span("storage.KV.Put", func() {
		p.out["storage.kv_put_ns"] = timeBatches(func(int) {
			kv.Put(p.names[rng.Intn(len(p.names))], p.value, nil)
		})
	})
	p.span("storage.KV.Get", func() {
		p.out["storage.kv_get_ns"] = timeBatches(func(int) {
			kv.Get(p.names[rng.Intn(len(p.names))])
		})
	})
}

// quorumLoopback runs the quorum protocol alone: three quorum.Nodes and
// one quorum.Client on transport.Loopback, with the server's N/R/W,
// shard count and ring placement but no TCP, no codec and no server.
func (p *prober) quorumLoopback() {
	ids := []string{"node0", "node1", "node2"}
	placement := ring.New(ids, ring.DefaultVirtualNodes)
	l := transport.NewLoopback(transport.LoopbackConfig{Seed: p.seed})
	defer l.Close()
	cfg := quorum.Config{Ring: ids, N: 3, R: 2, W: 2, ReadRepair: true, SloppyQuorum: true,
		AntiEntropy: true, Shards: shards, Placement: placement}
	for _, id := range ids {
		n := quorum.NewNode(id, cfg)
		defer n.Close()
		l.AddNode(id, n)
	}
	cli := quorum.NewClient("probe#gw")
	l.AddNode(cli.ID(), cli)
	done := make(chan error, 1)
	put := func(key string) {
		l.Invoke(cli.ID(), func(env transport.Env) {
			cli.Put(env, placement.Owner(key), key, p.value, func(r quorum.PutResult) { done <- r.Err })
		})
		<-done
	}
	get := func(key string) {
		l.Invoke(cli.ID(), func(env transport.Env) {
			cli.Get(env, placement.Owner(key), key, func(r quorum.GetResult) { done <- r.Err })
		})
		<-done
	}
	keys := p.names[:min(len(p.names), 1000)]
	for _, k := range keys {
		put(k)
	}
	rng := rand.New(rand.NewSource(p.seed))
	m0 := readAllocs().objects
	p.span("quorum.Client.Put", func() {
		p.out["quorum.loopback_put_us"] = timeEach(probeCalls, func(int) { put(keys[rng.Intn(len(keys))]) })
	})
	p.span("quorum.Client.Get", func() {
		p.out["quorum.loopback_get_us"] = timeEach(probeCalls, func(int) { get(keys[rng.Intn(len(keys))]) })
	})
	p.out["quorum.loopback_allocs_per_op"] = float64(readAllocs().objects-m0) / (2 * probeCalls)
}

// wal times Log.Append under the workload's fsync policy, in the data
// directory's filesystem: one appender, then two at once, which is what
// lets group commit share an fsync.
func (p *prober) wal() error {
	rec := make([]byte, p.wl.valueSize+64)
	for appenders := 1; appenders <= 2; appenders++ {
		dir := filepath.Join(p.dir, fmt.Sprintf("walprobe%d", appenders))
		log, err := wal.Open(dir, wal.Options{Policy: p.wl.fsync})
		if err != nil {
			return err
		}
		samples := make([][]float64, appenders)
		var appendErr error
		name := "wal.append_us"
		if appenders == 2 {
			name = "wal.append2_us"
		}
		p.span(fmt.Sprintf("wal.Log.Append.x%d", appenders), func() {
			var wg sync.WaitGroup
			var mu sync.Mutex
			for a := 0; a < appenders; a++ {
				wg.Add(1)
				go func(a int) {
					defer wg.Done()
					samples[a] = make([]float64, probeCalls/appenders)
					for i := range samples[a] {
						t0 := time.Now()
						_, err := log.Append(rec)
						samples[a][i] = float64(time.Since(t0).Nanoseconds()) / 1e3
						if err != nil {
							mu.Lock()
							appendErr = err
							mu.Unlock()
							return
						}
					}
				}(a)
			}
			wg.Wait()
		})
		var all []float64
		for _, s := range samples {
			all = append(all, s...)
		}
		p.out[name] = median(all)
		if err := log.Close(); err != nil && appendErr == nil {
			appendErr = err
		}
		os.RemoveAll(dir)
		if appendErr != nil {
			return appendErr
		}
	}
	return nil
}

// lsm loads one lsm.Engine with the workload's key count and value size
// (on quorum_lsm_get it then spans several SSTables; the small-value
// workloads stay in the memtable) and times the load and Gets after it.
// Put is reported as the mean, not the median: the median put only
// appends to the memtable, and the flushes are the cost.
func (p *prober) lsm() error {
	dir := filepath.Join(p.dir, "lsmprobe")
	e, err := lsm.Open(lsm.Options{Dir: dir, Async: true})
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	p.span("lsm.Engine.Put", func() {
		t0 := time.Now()
		for _, name := range p.names {
			e.Put(name, p.value, nil)
		}
		p.out["lsm.put_us"] = float64(time.Since(t0).Microseconds()) / float64(len(p.names))
	})
	rng := rand.New(rand.NewSource(p.seed))
	missing := 0
	p.span("lsm.Engine.Get", func() {
		p.out["lsm.get_us"] = timeEach(probeCalls, func(int) {
			if _, ok := e.Get(p.names[rng.Intn(len(p.names))]); !ok {
				missing++
			}
		})
	})
	if err := e.Close(); err != nil {
		return err
	}
	if missing > 0 {
		return fmt.Errorf("%d of %d loaded keys not found", missing, probeCalls)
	}
	return nil
}
