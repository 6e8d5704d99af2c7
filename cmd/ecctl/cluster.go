package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/geo"
	"repro/internal/server"
)

// findEcserver locates the node binary: $ECSERVER, beside ecctl, PATH.
func findEcserver() (string, error) {
	if p := os.Getenv("ECSERVER"); p != "" {
		return p, nil
	}
	if self, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(self), "ecserver")
		if _, err := os.Stat(cand); err == nil {
			return cand, nil
		}
	}
	if p, err := exec.LookPath("ecserver"); err == nil {
		return p, nil
	}
	return "", fmt.Errorf("ecserver binary not found (set $ECSERVER, place it next to ecctl, or add it to $PATH)")
}

// freePorts reserves n+n loopback ports (peer + http per node).
func freePorts(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

func cmdUp(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("up", stderr)
	n := fs.Int("n", 3, "cluster size")
	model := fs.String("model", "quorum", "consistency model: gossip, quorum, or session")
	seed := fs.Int64("seed", 1, "base randomness seed")
	fsync := fs.String("fsync", "sync", "WAL fsync policy: sync, batch, or none")
	noData := fs.Bool("no-data", false, "run memory-only (no WAL, no crash recovery)")
	shards := fs.Int("shards", 0, "execution shards per node, each a shard loop beside the serial loop (0 = GOMAXPROCS; quorum model)")
	xferRate := fs.Int("transfer-rate", 0, "elasticity transfer throttle, bytes/sec per source (0 = default)")
	xferBatch := fs.Int("transfer-batch", 0, "bytes of entries in one batch shipped to a peer: transfer, handoff, anti-entropy, geo (0 = default 64KiB)")
	engine := fs.String("engine", "", "storage engine: mem (default) or lsm (disk-resident; quorum model, needs data dirs)")
	zonesFlag := fs.String("zones", "", "comma-separated zone names (e.g. us,eu,ap); nodes are assigned round-robin")
	geoAsync := fs.Bool("geo-async", true, "with -zones: ack writes on the intra-zone sub-quorum, replicate cross-zone async")
	xzDelay := fs.Duration("xzone-delay", 0, "with -zones: artificial cross-zone per-frame delay (local RTT emulation)")
	dir := stateDir(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 1 {
		return fmt.Errorf("need at least one node")
	}
	var zoneNames []string
	if *zonesFlag != "" {
		for _, z := range strings.Split(*zonesFlag, ",") {
			z = strings.TrimSpace(z)
			if z == "" {
				return fmt.Errorf("empty zone name in -zones %q", *zonesFlag)
			}
			zoneNames = append(zoneNames, z)
		}
		if *model != "quorum" {
			return fmt.Errorf("-zones requires model=quorum")
		}
	}
	if *engine == "lsm" && *noData {
		return fmt.Errorf("-engine lsm needs data dirs (drop -no-data)")
	}
	if _, err := os.Stat(statePath(*dir)); err == nil {
		return fmt.Errorf("cluster already up (state at %s; `ecctl down` first)", statePath(*dir))
	}
	bin, err := findEcserver()
	if err != nil {
		return err
	}
	ports, err := freePorts(2 * *n)
	if err != nil {
		return err
	}

	st := &clusterState{
		Model:     *model,
		Peers:     map[string]string{},
		HTTP:      map[string]string{},
		PIDs:      map[string]int{},
		Data:      map[string]string{},
		Fsync:     *fsync,
		Seeds:     map[string]int64{},
		Shards:    *shards,
		XferRate:  *xferRate,
		XferBatch: *xferBatch,
		Engine:    *engine,
	}
	ids := make([]string, *n)
	for i := 0; i < *n; i++ {
		ids[i] = fmt.Sprintf("node%d", i)
		st.Peers[ids[i]] = ports[i]
		st.HTTP[ids[i]] = ports[*n+i]
		st.Seeds[ids[i]] = *seed + int64(i)
		if !*noData {
			st.Data[ids[i]] = filepath.Join(*dir, "data", ids[i])
		}
	}
	if len(zoneNames) > 0 {
		st.Zones = geo.AssignRoundRobin(ids, zoneNames)
		st.ZoneNames = zoneNames
		st.GeoAsync = *geoAsync
		st.XZoneDelay = *xzDelay
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}

	for _, id := range ids {
		if err := spawnNode(*dir, bin, st, id); err != nil {
			return err
		}
	}
	if err := saveState(*dir, st); err != nil {
		return err
	}

	// Wait for every node to answer a status round trip.
	for _, id := range ids {
		if err := waitReady(st.Peers[id], 10*time.Second); err != nil {
			return fmt.Errorf("%s did not come up: %w (see %s)", id, err, filepath.Join(*dir, id+".log"))
		}
	}
	fmt.Fprintf(stdout, "cluster up: %d nodes, model=%s", *n, *model)
	if *engine != "" {
		fmt.Fprintf(stdout, ", engine=%s", *engine)
	}
	if len(zoneNames) > 0 {
		fmt.Fprintf(stdout, ", zones=%s", strings.Join(zoneNames, ","))
		if st.GeoAsync {
			fmt.Fprintf(stdout, " (async cross-zone replication)")
		}
	}
	fmt.Fprintln(stdout)
	for _, id := range ids {
		fmt.Fprintf(stdout, "  %s  peer=%s  http=%s  pid=%d", id, st.Peers[id], st.HTTP[id], st.PIDs[id])
		if st.Zones[id] != "" {
			fmt.Fprintf(stdout, "  zone=%s", st.Zones[id])
		}
		if st.Data[id] != "" {
			fmt.Fprintf(stdout, "  data=%s", st.Data[id])
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

// spawnNode starts one ecserver process for id with the cluster's
// recorded configuration and stores its pid in st. Used by `up` and by
// `restart` — a restarted node gets the same flags, and crucially the
// same data dir, so it recovers its pre-crash state from the WAL.
func spawnNode(dir, bin string, st *clusterState, id string, extra ...string) error {
	var peerList []string
	for _, pid := range sortedIDs(st) {
		peerList = append(peerList, pid+"="+st.Peers[pid])
	}
	logf, err := os.OpenFile(filepath.Join(dir, id+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cargs := []string{
		"-id", id,
		"-model", st.Model,
		"-peers", strings.Join(peerList, ","),
		"-http", st.HTTP[id],
		"-seed", fmt.Sprint(st.Seeds[id]),
	}
	if st.Data[id] != "" {
		cargs = append(cargs, "-data-dir", st.Data[id])
		if st.Fsync != "" {
			cargs = append(cargs, "-fsync", st.Fsync)
		}
	}
	if st.Shards > 0 {
		cargs = append(cargs, "-shards", fmt.Sprint(st.Shards))
	}
	if st.XferRate > 0 {
		cargs = append(cargs, "-transfer-rate", fmt.Sprint(st.XferRate))
	}
	if st.XferBatch > 0 {
		cargs = append(cargs, "-transfer-batch", fmt.Sprint(st.XferBatch))
	}
	if st.Engine != "" {
		cargs = append(cargs, "-engine", st.Engine)
	}
	if len(st.Zones) > 0 {
		cargs = append(cargs, "-zone", st.Zones[id], "-zones", geo.FormatZoneSpec(st.Zones))
		if st.GeoAsync {
			cargs = append(cargs, "-geo-async")
		}
		if st.XZoneDelay > 0 {
			cargs = append(cargs, "-xzone-delay", st.XZoneDelay.String())
		}
	}
	cargs = append(cargs, extra...)
	cmd := exec.Command(bin, cargs...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("start %s: %w", id, err)
	}
	logf.Close()
	st.PIDs[id] = cmd.Process.Pid
	// Nodes outlive ecctl. While ecctl lives (an in-process caller such
	// as a test may run many commands), it reaps each node that exits, so
	// none lingers as a zombie.
	go cmd.Wait()
	return nil
}

func waitReady(addr string, d time.Duration) error {
	deadline := time.Now().Add(d)
	var lastErr error
	for time.Now().Before(deadline) {
		c, err := server.Dial(addr, "ecctl-ready")
		if err == nil {
			_, _, err = c.Status()
			c.Close()
			if err == nil {
				return nil
			}
		}
		lastErr = err
		time.Sleep(100 * time.Millisecond)
	}
	return lastErr
}

func cmdDown(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("down", stderr)
	dir := stateDir(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := loadState(*dir)
	if err != nil {
		return err
	}
	for id, pid := range st.PIDs {
		if p, err := os.FindProcess(pid); err == nil {
			p.Signal(syscall.SIGTERM)
			fmt.Fprintf(stdout, "stopped %s (pid %d)\n", id, pid)
		}
	}
	// Durable state dies with the cluster: `down` is teardown, not a
	// crash. (Use `kill` + `restart` to exercise recovery.)
	os.RemoveAll(filepath.Join(*dir, "data"))
	return os.Remove(statePath(*dir))
}

func cmdKill(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("kill", stderr)
	dir := stateDir(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: ecctl kill <node>")
	}
	st, err := loadState(*dir)
	if err != nil {
		return err
	}
	id := fs.Arg(0)
	pid, ok := st.PIDs[id]
	if !ok {
		return fmt.Errorf("unknown node %q", id)
	}
	p, err := os.FindProcess(pid)
	if err != nil {
		return err
	}
	if err := p.Kill(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "killed %s (pid %d)\n", id, pid)
	return nil
}

// cmdRestart respawns a node with the exact flags `up` gave it —
// including its data dir, so it replays its WAL (and latest checkpoint)
// and rejoins with everything it had acknowledged before the crash.
func cmdRestart(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("restart", stderr)
	dir := stateDir(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: ecctl restart <node>")
	}
	st, err := loadState(*dir)
	if err != nil {
		return err
	}
	id := fs.Arg(0)
	if _, ok := st.Peers[id]; !ok {
		return fmt.Errorf("unknown node %q", id)
	}
	// Make sure the old process is gone. Signal(0) lies for zombies, so
	// probe the peer port instead — a live node still owns it.
	if conn, err := net.DialTimeout("tcp", st.Peers[id], 250*time.Millisecond); err == nil {
		conn.Close()
		return fmt.Errorf("%s is still running on %s (`ecctl kill %s` first)", id, st.Peers[id], id)
	}
	bin, err := findEcserver()
	if err != nil {
		return err
	}
	if err := spawnNode(*dir, bin, st, id); err != nil {
		return err
	}
	if err := saveState(*dir, st); err != nil {
		return err
	}
	if err := waitReady(st.Peers[id], 10*time.Second); err != nil {
		return fmt.Errorf("%s did not come back: %w (see %s)", id, err, filepath.Join(*dir, id+".log"))
	}
	from := "memory-only (no data dir)"
	if st.Data[id] != "" {
		from = "recovered from " + st.Data[id]
	}
	fmt.Fprintf(stdout, "restarted %s (pid %d), %s\n", id, st.PIDs[id], from)
	return nil
}
