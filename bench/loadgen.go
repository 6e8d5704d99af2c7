package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/server"
)

const (
	// conns is the number of client connections, all to node0. Two,
	// because the host has two cores: more clients only queue.
	conns = 2
	// putWindow is how many of a connection's latest puts a new put's
	// key must differ from. A connection has one request in flight, so a
	// put never targets a key that has a put in flight and the share of
	// conflicting writes is exactly 0.
	putWindow = 16
	// preloadTries is how often the preload writes a key before it gives
	// up: each try that times out takes the coordinator's 500 ms, so a
	// stall of the cluster of up to 4 s fails no operation.
	preloadTries = 8
)

// op is one generated client operation.
type op struct {
	get bool
	key int32
}

// opGen draws one connection's operation sequence from a seeded source:
// keys uniform over the indices congruent to the connection number
// modulo conns, so connections never write each other's keys.
type opGen struct {
	rng     *rand.Rand
	conn    int
	perConn int
	getFrac float64
	recent  [putWindow]int32
	n       int
}

func newOpGen(seed int64, conn, keys int, getFrac float64) *opGen {
	g := &opGen{rng: rand.New(rand.NewSource(seed)), conn: conn, perConn: keys / conns, getFrac: getFrac}
	for i := range g.recent {
		g.recent[i] = -1
	}
	return g
}

func (g *opGen) next() op {
	get := g.rng.Float64() < g.getFrac
	for {
		key := int32(g.rng.Intn(g.perConn)*conns + g.conn)
		if get {
			return op{get: true, key: key}
		}
		fresh := true
		for _, r := range g.recent {
			if r == key {
				fresh = false
				break
			}
		}
		if fresh {
			g.recent[g.n%putWindow] = key
			g.n++
			return op{key: key}
		}
	}
}

// A value starts with the stamp "k<key:8>|c<conn:1>|s<seq:10>|", written
// and parsed by hand so that the load generator adds no allocation of
// its own to allocs_per_op.
const (
	stampLen = len("k00000000|c0|s0000000000|")
	keyOff   = 1
	connOff  = 11
	seqOff   = 14
)

func putDigits(b []byte, v uint32) {
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = byte('0' + v%10)
		v /= 10
	}
}

func digits(b []byte) (v uint32, ok bool) {
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint32(c-'0')
	}
	return v, true
}

// loadgen owns the client connections and the bookkeeping that lets
// verify check every key: per key, the highest put sequence number
// acknowledged, the highest attempted, and the puts that returned an
// error.
type loadgen struct {
	wl      workload
	keys    int
	names   []string // key index to key name
	clients [conns]*server.Client
	pad     []byte // seeded filler behind each value's stamp
	seq     atomic.Uint32
	acked   []atomic.Uint32
	tried   []atomic.Uint32
	// unacked holds, per key, the puts that returned an error. A put that
	// timed out at the coordinator may still have been applied by a
	// replica, and the put that follows it does not carry its dot (the
	// gateway's quorum client keeps a put's context only on success), so
	// the store rightly keeps both as siblings.
	unackedMu sync.Mutex
	unacked   map[int32][]uint32

	attempted atomic.Int64
	done      atomic.Int64 // operations completed, for the window sampler
	failed    atomic.Int64
	firstErr  atomic.Value // string

	tr *tracer // nil unless spans are being recorded
}

func newLoadgen(wl workload, keys int, addr string, seed int64) (*loadgen, error) {
	g := &loadgen{wl: wl, keys: keys, acked: make([]atomic.Uint32, keys), tried: make([]atomic.Uint32, keys), unacked: map[int32][]uint32{}}
	g.names = make([]string, keys)
	for i := range g.names {
		g.names[i] = fmt.Sprintf("k%08d", i)
	}
	g.pad = make([]byte, 2*wl.valueSize)
	rand.New(rand.NewSource(seed)).Read(g.pad)
	for i := range g.clients {
		c, err := server.Dial(addr, fmt.Sprintf("bench-%d", i))
		if err != nil {
			g.close()
			return nil, err
		}
		g.clients[i] = c
	}
	if _, _, err := g.clients[0].Status(); err != nil {
		g.close()
		return nil, fmt.Errorf("cluster not ready: %w", err)
	}
	return g, nil
}

func (g *loadgen) close() {
	for _, c := range g.clients {
		if c != nil {
			c.Close()
		}
	}
}

func (g *loadgen) fail(err error) {
	g.failed.Add(1)
	g.firstErr.CompareAndSwap(nil, err.Error())
}

// fillValue writes key's next value into buf: the stamp, then filler.
func (g *loadgen) fillValue(buf []byte, key int32, conn int, seq uint32) {
	copy(buf, "k00000000|c0|s0000000000|")
	putDigits(buf[keyOff:keyOff+8], uint32(key))
	putDigits(buf[connOff:connOff+1], uint32(conn))
	putDigits(buf[seqOff:seqOff+10], seq)
	copy(buf[stampLen:], g.pad[int(seq)%g.wl.valueSize:])
}

// parseStamp extracts key and sequence number from a stored value; ok
// is false unless the stamp is well formed and names the connection
// that owns the key.
func parseStamp(v []byte) (key int32, seq uint32, ok bool) {
	if len(v) < stampLen || v[0] != 'k' || v[connOff-1] != 'c' || v[seqOff-1] != 's' || v[stampLen-1] != '|' {
		return 0, 0, false
	}
	k, ok1 := digits(v[keyOff : keyOff+8])
	c, ok2 := digits(v[connOff : connOff+1])
	s, ok3 := digits(v[seqOff : seqOff+10])
	return int32(k), s, ok1 && ok2 && ok3 && c == k%conns
}

// do runs one operation on connection conn and counts it as failed if
// its outcome is wrong. buf is the caller's value buffer (one per
// goroutine).
func (g *loadgen) do(conn int, o op, buf []byte, parent int) {
	if err := g.try(conn, o, buf, parent); err != nil {
		g.fail(err)
	}
}

// try runs one operation and returns what was wrong with its outcome.
func (g *loadgen) try(conn int, o op, buf []byte, parent int) error {
	g.attempted.Add(1)
	defer g.done.Add(1)
	c := g.clients[conn]
	name := g.names[o.key]
	if o.get {
		sp := g.tr.begin(parent, "server.client.get")
		v, found, err := c.Get(name)
		g.tr.end(sp)
		if err != nil {
			return fmt.Errorf("get %s: %w", name, err)
		}
		if k, _, ok := parseStamp(v); !found || !ok || k != o.key {
			return fmt.Errorf("get %s: found=%v, value %q is not this key's", name, found, head(v))
		}
		return nil
	}
	seq := g.seq.Add(1)
	g.fillValue(buf, o.key, conn, seq)
	g.tried[o.key].Store(seq)
	sp := g.tr.begin(parent, "server.client.put")
	err := c.Put(name, buf)
	g.tr.end(sp)
	if err != nil {
		g.unackedMu.Lock()
		g.unacked[o.key] = append(g.unacked[o.key], seq)
		g.unackedMu.Unlock()
		return fmt.Errorf("put %s: %w", name, err)
	}
	g.acked[o.key].Store(seq)
	return nil
}

func head(v []byte) []byte {
	if len(v) > stampLen {
		return v[:stampLen]
	}
	return v
}

// preload writes every key once, each connection its own keys in index
// order, one request outstanding per connection, and returns how many
// puts it had to repeat. A bulk load makes every replica's memtable fill
// at the same moment; when the flushes of all six (4 MiB each, on one P)
// take longer than the coordinator's 500 ms quorum time-out, the put that
// met them fails with "timeout waiting for quorum" (README.md, finding
// 8): one quorum_lsm_get set-up in seven on a quiet host, one in three on
// a slow one, always in the load, never in a timed phase. The loader does
// what a bulk loader would and writes the key again, up to preloadTries
// times; only a put that fails every time counts as failed. The put that
// timed out may have been applied all the same, and then stays beside
// its repeat as a sibling (see loadgen.unacked).
func (g *loadgen) preload() (retried int64) {
	var wg sync.WaitGroup
	var again atomic.Int64
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := make([]byte, g.wl.valueSize)
			for k := c; k < g.keys; k += conns {
				var err error
				for tries := 0; tries < preloadTries; tries++ {
					if err = g.try(c, op{key: int32(k)}, buf, 0); err == nil {
						break
					}
					again.Add(1)
				}
				if err != nil {
					g.fail(err)
				}
			}
		}(c)
	}
	wg.Wait()
	return again.Load()
}

// newTicker returns a timerfd that expires every interval, as a file the
// Go netpoller waits on. A goroutine reading it parks without holding
// the P and is woken by epoll within ~50 us of the expiry. The two
// simpler pacers both fail on one P: a time.Sleep wake-up goes through
// the netpoller's millisecond timeout and arrives ~0.5 ms late on this
// host (README.md, noise source 1), and a thread blocked in nanosleep
// keeps the P until sysmon takes it back, which delays the very
// operation it has just dispatched.
func newTicker(interval time.Duration) (*os.File, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, 0x800, 0x80000
	fd, _, e := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if e != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", e)
	}
	ts := syscall.NsecToTimespec(int64(interval))
	spec := [2]syscall.Timespec{ts, ts} // struct itimerspec: it_interval, it_value
	if _, _, e := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); e != 0 {
		syscall.Close(int(fd))
		return nil, fmt.Errorf("timerfd_settime: %w", e)
	}
	return os.NewFile(fd, "timerfd"), nil
}

// pacedResult is what one open-loop phase measured.
type pacedResult struct {
	ops     int
	latency []float64 // ms, completion minus due time, sorted
	late    []float64 // ms, dispatch minus due time, sorted
}

// paced offers rate ops/s for d, open loop: op i is due at start +
// (i+1)/rate whatever the cluster is doing, and is timed from its due
// time, so a stall is charged to every op that was due during it. The
// generator only waits for the ticker, stamps the dispatch time and
// sends an index down a channel that can hold the whole phase, so it
// never blocks on the cluster. Each connection has one worker, so one
// request in flight: operations that find it busy wait in the queue, and
// the wait counts. More in flight would let the catch-up burst after a
// stall tip the cluster into its slow state (README.md, noise source 2).
func (g *loadgen) paced(seed int64, d time.Duration, parent int) (pacedResult, error) {
	n := int(float64(g.wl.rate) * d.Seconds())
	interval := time.Second / time.Duration(g.wl.rate)
	ops := make([]op, n)
	var gens [conns]*opGen
	for c := range gens {
		gens[c] = newOpGen(seed+int64(c), c, g.keys, g.wl.getFrac)
	}
	for i := range ops {
		ops[i] = gens[i%conns].next()
	}
	lat := make([]float64, n)
	late := make([]float64, n)
	var queues [conns]chan int
	var wg sync.WaitGroup
	tick, err := newTicker(interval)
	if err != nil {
		return pacedResult{}, err
	}
	defer tick.Close()
	start := time.Now()
	due := func(i int) time.Time { return start.Add(time.Duration(i+1) * interval) }
	for c := range queues {
		q := make(chan int, n/conns+1) // holds the whole phase: the generator must never block
		queues[c] = q
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := make([]byte, g.wl.valueSize)
			for i := range q {
				g.do(c, ops[i], buf, parent)
				lat[i] = ms(time.Since(due(i)))
			}
		}(c)
	}
	var count [8]byte
	for i := 0; i < n; {
		// A read returns how many times the timer has expired since the
		// last one: more than once if this goroutine was kept waiting.
		if _, err = tick.Read(count[:]); err != nil {
			break
		}
		for k := binary.NativeEndian.Uint64(count[:]); k > 0 && i < n; k-- {
			late[i] = ms(time.Since(due(i)))
			queues[i%conns] <- i
			i++
		}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	if err != nil {
		return pacedResult{}, fmt.Errorf("ticker: %w", err)
	}
	sort.Float64s(lat)
	sort.Float64s(late)
	return pacedResult{ops: n, latency: lat, late: late}, nil
}

// closedResult is what one closed-loop phase measured.
type closedResult struct {
	ops      int
	elapsed  time.Duration
	latency  []float64 // ms, sorted
	getLat   []float64 // ms, sorted: the gets among latency
	putLat   []float64 // ms, sorted: the puts
	maxGapMs float64   // longest interval with no completion
}

// closed runs one closed-loop client per connection for d: each sends
// its next request when the previous one completes, so at most conns
// requests are in flight.
func (g *loadgen) closed(seed int64, d time.Duration, parent int) closedResult {
	type rec struct {
		get, put []float64
		done     []time.Duration // completion times since start
	}
	var recs [conns]rec
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := newOpGen(seed+int64(c), c, g.keys, g.wl.getFrac)
			buf := make([]byte, g.wl.valueSize)
			r := &recs[c]
			for {
				t0 := time.Now()
				if t0.Sub(start) >= d {
					return
				}
				o := gen.next()
				g.do(c, o, buf, parent)
				t1 := time.Now()
				if o.get {
					r.get = append(r.get, ms(t1.Sub(t0)))
				} else {
					r.put = append(r.put, ms(t1.Sub(t0)))
				}
				r.done = append(r.done, t1.Sub(start))
			}
		}(c)
	}
	wg.Wait()
	res := closedResult{elapsed: time.Since(start)}
	var done []time.Duration
	for _, r := range recs {
		res.getLat = append(res.getLat, r.get...)
		res.putLat = append(res.putLat, r.put...)
		done = append(done, r.done...)
	}
	res.latency = append(append(res.latency, res.getLat...), res.putLat...)
	res.ops = len(res.latency)
	sort.Float64s(res.latency)
	sort.Float64s(res.getLat)
	sort.Float64s(res.putLat)
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	prev := time.Duration(0)
	for _, t := range append(done, res.elapsed) {
		if gap := ms(t - prev); gap > res.maxGapMs {
			res.maxGapMs = gap
		}
		prev = t
	}
	return res
}

// verify reads every key back through a fresh connection to addr and
// checks what the store holds for it: one version, or several siblings.
// One of them must be the last put acknowledged for that key or a later
// one that was attempted; any other must be a put that returned an error
// (unacked), never one that a later acknowledged put superseded. Reads
// are pipelined: they create no divergence for anti-entropy to amplify.
func (g *loadgen) verify(addr string) error {
	c, err := server.Dial(addr, "bench-verify")
	if err != nil {
		return err
	}
	defer c.Close()
	const readers = 8
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := r; k < g.keys; k += readers {
				g.attempted.Add(1)
				vs, err := c.GetSiblings(g.names[k])
				if err == nil {
					err = g.checkVersions(int32(k), vs)
				}
				if err != nil {
					g.fail(fmt.Errorf("verify %s: %w", g.names[k], err))
				}
			}
		}(r)
	}
	wg.Wait()
	return nil
}

// checkVersions is verify's rule for the versions read back for key k.
func (g *loadgen) checkVersions(k int32, vs [][]byte) error {
	lo, hi := g.acked[k].Load(), g.tried[k].Load()
	g.unackedMu.Lock()
	unacked := g.unacked[k]
	g.unackedMu.Unlock()
	newest := false
	for _, v := range vs {
		key, seq, ok := parseStamp(v)
		switch {
		case !ok || key != k:
			return fmt.Errorf("value %q is not this key's", head(v))
		case seq >= lo && seq <= hi:
			newest = true
		case !slices.Contains(unacked, seq):
			return fmt.Errorf("read put %d: neither the last acknowledged put %d, nor a later attempt (up to %d), nor a put that returned an error", seq, lo, hi)
		}
	}
	if !newest {
		return fmt.Errorf("%d versions read, none is the last acknowledged put %d (or one up to attempted %d)", len(vs), lo, hi)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
