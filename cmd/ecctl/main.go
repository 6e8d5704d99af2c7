// Command ecctl bootstraps and drives a local cluster of ecserver
// nodes. It is the paper's evaluation harness made operational: the
// same models the simulator runs now answer over real sockets.
//
// Usage:
//
//	ecctl up -n 3 -model quorum   # spawn a 3-node cluster
//	ecctl up -n 9 -zones us,eu,ap # 3 zones x 3 nodes, async cross-zone replication
//	ecctl status                  # per-node health, incl. suspected peers and geo lag
//	ecctl ring [key]              # placement: ownership share, or a key's replicas
//	ecctl put <key> <value>       # write through a node, over what it reads first
//	ecctl get <key>               # read every sibling, one a line (session token if model=session)
//	ecctl get -sla eventual <key> # SLA read: strong, eventual, or bounded:<dur>
//	ecctl del <key>               # delete what it reads first
//	ecctl smoke                   # end-to-end check incl. session guarantees
//	ecctl bench -clients 32       # closed-loop load: ops/s, latency, server cpu
//	ecctl kill <node>             # SIGKILL one node
//	ecctl restart <node>          # respawn it from its data dir (WAL recovery)
//	ecctl add-node                # scale out: admit a new node, stream its arcs live
//	ecctl decommission <node>     # scale in: drain, hand off arcs, stop the node
//	ecctl down                    # stop everything, remove state
//
// Cluster state (node ids, addresses, pids) lives in .ecctl/cluster.json
// under the current directory (-dir overrides), so subcommands find the
// cluster without flags. The ecserver binary is located via $ECSERVER,
// next to ecctl itself, then $PATH.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/geo"
	"repro/internal/ring"
	"repro/internal/server"
	"repro/internal/session"
)

// clusterState is what `up` persists and every other subcommand reads.
type clusterState struct {
	Model string            `json:"model"`
	Peers map[string]string `json:"peers"` // id -> peer-link addr
	HTTP  map[string]string `json:"http"`  // id -> http addr
	PIDs  map[string]int    `json:"pids"`  // id -> process id
	Data  map[string]string `json:"data"`  // id -> durable state dir ("" = memory-only)
	Fsync string            `json:"fsync"` // WAL fsync policy nodes were started with
	Seeds map[string]int64  `json:"seeds"` // id -> randomness seed (restart reuses it)
	// Shards is the per-node execution shard count every node was
	// spawned with (0 = server default: GOMAXPROCS).
	Shards int `json:"shards,omitempty"`
	// XferRate/XferBatch throttle elasticity arc transfers (0 = server
	// defaults); every node is spawned with them so sources pace
	// streams consistently.
	XferRate  int `json:"transfer_rate,omitempty"`
	XferBatch int `json:"transfer_batch,omitempty"`
	// Engine is the storage engine every node was spawned with
	// ("" = server default in-memory KV, "lsm" = disk-resident LSM).
	Engine string `json:"engine,omitempty"`
	// Zones maps node id -> zone name when the cluster was brought up
	// with -zones; ZoneNames keeps the declared zone order so add-node
	// can keep round-robin assignment going.
	Zones     map[string]string `json:"zones,omitempty"`
	ZoneNames []string          `json:"zone_names,omitempty"`
	// GeoAsync/XZoneDelay record the geo-replication flags every node
	// was spawned with (XZoneDelay emulates cross-zone RTT locally).
	GeoAsync   bool          `json:"geo_async,omitempty"`
	XZoneDelay time.Duration `json:"xzone_delay,omitempty"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "up":
		err = cmdUp(args)
	case "down":
		err = cmdDown(args)
	case "kill":
		err = cmdKill(args)
	case "restart":
		err = cmdRestart(args)
	case "add-node":
		err = cmdAddNode(args)
	case "decommission":
		err = cmdDecommission(args)
	case "status":
		err = cmdStatus(args)
	case "ring":
		err = cmdRing(args)
	case "put", "get", "del":
		err = cmdKV(cmd, args)
	case "smoke":
		err = cmdSmoke(args)
	case "bench":
		err = cmdBench(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ecctl %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ecctl {up|down|kill|restart|add-node|decommission|status|ring|put|get|del|smoke|bench} [args]")
	os.Exit(2)
}

// stateDir resolves the cluster state directory from -dir or default.
func stateDir(fs *flag.FlagSet) *string {
	return fs.String("dir", ".ecctl", "cluster state directory")
}

func statePath(dir string) string { return filepath.Join(dir, "cluster.json") }

func loadState(dir string) (*clusterState, error) {
	b, err := os.ReadFile(statePath(dir))
	if err != nil {
		return nil, fmt.Errorf("no cluster (run `ecctl up` first): %w", err)
	}
	var st clusterState
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

func saveState(dir string, st *clusterState) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, _ := json.MarshalIndent(st, "", "  ")
	return os.WriteFile(statePath(dir), append(b, '\n'), 0o644)
}

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

func cmdUp(args []string) error {
	fs := flag.NewFlagSet("up", flag.ExitOnError)
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
	fs.Parse(args)
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
	fmt.Printf("cluster up: %d nodes, model=%s", *n, *model)
	if *engine != "" {
		fmt.Printf(", engine=%s", *engine)
	}
	if len(zoneNames) > 0 {
		fmt.Printf(", zones=%s", strings.Join(zoneNames, ","))
		if st.GeoAsync {
			fmt.Printf(" (async cross-zone replication)")
		}
	}
	fmt.Println()
	for _, id := range ids {
		fmt.Printf("  %s  peer=%s  http=%s  pid=%d", id, st.Peers[id], st.HTTP[id], st.PIDs[id])
		if st.Zones[id] != "" {
			fmt.Printf("  zone=%s", st.Zones[id])
		}
		if st.Data[id] != "" {
			fmt.Printf("  data=%s", st.Data[id])
		}
		fmt.Println()
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
	// The parent never waits; nodes outlive ecctl. Release avoids a
	// zombie if ecctl itself lingers.
	cmd.Process.Release()
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

func cmdDown(args []string) error {
	fs := flag.NewFlagSet("down", flag.ExitOnError)
	dir := stateDir(fs)
	fs.Parse(args)
	st, err := loadState(*dir)
	if err != nil {
		return err
	}
	for id, pid := range st.PIDs {
		if p, err := os.FindProcess(pid); err == nil {
			p.Signal(syscall.SIGTERM)
			fmt.Printf("stopped %s (pid %d)\n", id, pid)
		}
	}
	// Durable state dies with the cluster: `down` is teardown, not a
	// crash. (Use `kill` + `restart` to exercise recovery.)
	os.RemoveAll(filepath.Join(*dir, "data"))
	return os.Remove(statePath(*dir))
}

func cmdKill(args []string) error {
	fs := flag.NewFlagSet("kill", flag.ExitOnError)
	dir := stateDir(fs)
	fs.Parse(args)
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
	fmt.Printf("killed %s (pid %d)\n", id, pid)
	return nil
}

// cmdRestart respawns a node with the exact flags `up` gave it —
// including its data dir, so it replays its WAL (and latest checkpoint)
// and rejoins with everything it had acknowledged before the crash.
func cmdRestart(args []string) error {
	fs := flag.NewFlagSet("restart", flag.ExitOnError)
	dir := stateDir(fs)
	fs.Parse(args)
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
	fmt.Printf("restarted %s (pid %d), %s\n", id, st.PIDs[id], from)
	return nil
}

// nextNodeID picks the first nodeN name not already in the cluster.
func nextNodeID(st *clusterState) string {
	for i := 0; ; i++ {
		id := fmt.Sprintf("node%d", i)
		if _, ok := st.Peers[id]; !ok {
			return id
		}
	}
}

// cmdAddNode scales the cluster out by one node, live: spawn a joiner
// that owns nothing, ask an existing member to coordinate the new
// membership epoch, then watch the joiner stream exactly its gained
// arcs until it reports "ok". The cluster serves throughout. The
// updated cluster.json is written before the join starts, so a crash
// anywhere leaves a restartable configuration.
func cmdAddNode(args []string) error {
	fs := flag.NewFlagSet("add-node", flag.ExitOnError)
	dir := stateDir(fs)
	timeout := fs.Duration("timeout", 2*time.Minute, "how long to wait for catch-up")
	zoneFlag := fs.String("zone", "", "joiner's zone (default: least-populated declared zone)")
	fs.Parse(args)
	st, err := loadState(*dir)
	if err != nil {
		return err
	}
	if st.Model != "quorum" {
		return fmt.Errorf("add-node requires model=quorum (cluster runs %s)", st.Model)
	}
	bin, err := findEcserver()
	if err != nil {
		return err
	}
	ports, err := freePorts(2)
	if err != nil {
		return err
	}

	id := nextNodeID(st)
	var maxSeed int64
	for _, s := range st.Seeds {
		if s > maxSeed {
			maxSeed = s
		}
	}
	st.Peers[id] = ports[0]
	st.HTTP[id] = ports[1]
	st.Seeds[id] = maxSeed + 1
	if len(st.Data) > 0 {
		st.Data[id] = filepath.Join(*dir, "data", id)
	}
	zone := *zoneFlag
	if zone == "" && len(st.ZoneNames) > 0 {
		// Keep zones balanced: the joiner lands in the emptiest one.
		counts := map[string]int{}
		for _, z := range st.Zones {
			counts[z]++
		}
		for _, z := range st.ZoneNames {
			if zone == "" || counts[z] < counts[zone] {
				zone = z
			}
		}
	}
	if zone != "" {
		if st.Zones == nil {
			st.Zones = map[string]string{}
		}
		st.Zones[id] = zone
	}
	// Persist the member before any process knows about it: if ecctl
	// dies here, `down` still reaps the node and a joiner restart still
	// finds the full peer map.
	if err := saveState(*dir, st); err != nil {
		return err
	}
	if err := spawnNode(*dir, bin, st, id, "-join"); err != nil {
		return err
	}
	if err := saveState(*dir, st); err != nil {
		return err
	}
	if err := waitReady(st.Peers[id], 10*time.Second); err != nil {
		return fmt.Errorf("joiner %s did not come up: %w (see %s)", id, err, filepath.Join(*dir, id+".log"))
	}
	if zone != "" {
		fmt.Printf("add-node: %s up (peer=%s http=%s pid=%d zone=%s), joining...\n", id, st.Peers[id], st.HTTP[id], st.PIDs[id], zone)
	} else {
		fmt.Printf("add-node: %s up (peer=%s http=%s pid=%d), joining...\n", id, st.Peers[id], st.HTTP[id], st.PIDs[id])
	}

	// Any existing member coordinates the epoch.
	var coord *server.Client
	var coordID string
	for _, cid := range sortedIDs(st) {
		if cid == id {
			continue
		}
		if c, err := server.Dial(st.Peers[cid], "ecctl-join"); err == nil {
			coord, coordID = c, cid
			break
		}
	}
	if coord == nil {
		return fmt.Errorf("no existing member reachable to coordinate the join")
	}
	err = coord.AddNodeZone(id, st.Peers[id], zone)
	coord.Close()
	if err != nil {
		return fmt.Errorf("coordinator %s: %w", coordID, err)
	}

	// Watch the joiner pull its arcs.
	jc, err := server.Dial(st.Peers[id], "ecctl-join")
	if err != nil {
		return err
	}
	defer jc.Close()
	deadline := time.Now().Add(*timeout)
	lastDone := -1
	for {
		rs, _, err := jc.Status()
		if err == nil {
			if rs.State == "ok" {
				fmt.Printf("add-node: %s caught up at epoch %d; cluster is %d nodes\n", id, rs.Epoch, len(rs.Members))
				return nil
			}
			if rs.TransferDone != lastDone {
				lastDone = rs.TransferDone
				fmt.Printf("add-node: %s %s, ranges %d/%d\n", id, rs.State, rs.TransferDone, rs.TransferTotal)
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s still catching up after %s", id, *timeout)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// cmdDecommission scales the cluster in by one node, gracefully: the
// node drains (stops minting write ids, flushes hinted handoff), hands
// each of its arcs to the survivor that now owns it, and only once
// every gainer acknowledged its last range does it report "left" and
// get stopped and removed from the cluster state.
func cmdDecommission(args []string) error {
	fs := flag.NewFlagSet("decommission", flag.ExitOnError)
	dir := stateDir(fs)
	timeout := fs.Duration("timeout", 2*time.Minute, "how long to wait for handoff")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: ecctl decommission <node>")
	}
	st, err := loadState(*dir)
	if err != nil {
		return err
	}
	if st.Model != "quorum" {
		return fmt.Errorf("decommission requires model=quorum (cluster runs %s)", st.Model)
	}
	id := fs.Arg(0)
	if _, ok := st.Peers[id]; !ok {
		return fmt.Errorf("unknown node %q", id)
	}
	c, err := server.Dial(st.Peers[id], "ecctl-decom")
	if err != nil {
		return fmt.Errorf("dial %s: %w", id, err)
	}
	defer c.Close()
	if err := c.Decommission(); err != nil {
		return err
	}
	fmt.Printf("decommission: %s draining...\n", id)

	deadline := time.Now().Add(*timeout)
	lastState := ""
	for {
		rs, _, err := c.Status()
		if err == nil {
			if rs.State == "left" {
				fmt.Printf("decommission: %s left at epoch %d; survivors hold every arc\n", id, rs.Epoch)
				break
			}
			if rs.State != lastState {
				lastState = rs.State
				fmt.Printf("decommission: %s %s (pending hints %d)\n", id, rs.State, rs.PendingHints)
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s still %s after %s", id, lastState, *timeout)
		}
		time.Sleep(200 * time.Millisecond)
	}

	if pid, ok := st.PIDs[id]; ok {
		if p, err := os.FindProcess(pid); err == nil {
			p.Signal(syscall.SIGTERM)
			fmt.Printf("decommission: stopped %s (pid %d)\n", id, pid)
		}
	}
	if st.Data[id] != "" {
		os.RemoveAll(st.Data[id])
	}
	delete(st.Peers, id)
	delete(st.HTTP, id)
	delete(st.PIDs, id)
	delete(st.Data, id)
	delete(st.Seeds, id)
	delete(st.Zones, id)
	return saveState(*dir, st)
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	dir := stateDir(fs)
	fs.Parse(args)
	st, err := loadState(*dir)
	if err != nil {
		return err
	}
	for _, id := range sortedIDs(st) {
		resp, err := http.Get("http://" + st.HTTP[id] + "/healthz")
		if err != nil {
			fmt.Printf("%-8s DOWN (%v)\n", id, err)
			continue
		}
		var h server.Status
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			fmt.Printf("%-8s ERROR (%v)\n", id, err)
			continue
		}
		m, _ := scrapeMetrics(st.HTTP[id]) // nil when unreadable: the line leaves its figures out
		fmt.Println(statusLine(id, h, m))
	}
	return nil
}

// statusLine is node id's line of `ecctl status`, from its Status and the
// un-labelled series of its /metrics.
func statusLine(id string, h server.Status, m map[string]float64) string {
	line := fmt.Sprintf("%-8s UP model=%s uptime=%s", id, h.Model, h.Uptime)
	if h.Zone != "" {
		line += " zone=" + h.Zone
	}
	if h.State != "" {
		line += fmt.Sprintf(" state=%s epoch=%d", h.State, h.Epoch)
	}
	if len(h.Suspect) > 0 {
		line += " suspects=" + strings.Join(h.Suspect, ",")
	}
	if len(h.GeoStalenessMs) > 0 {
		// Cross-zone replication lag as seen from this node: worst
		// acked high-water age per remote zone.
		zs := make([]string, 0, len(h.GeoStalenessMs))
		for z := range h.GeoStalenessMs {
			zs = append(zs, z)
		}
		sort.Strings(zs)
		parts := make([]string, len(zs))
		for i, z := range zs {
			parts[i] = fmt.Sprintf("%s:%dms", z, h.GeoStalenessMs[z])
		}
		line += " geo-lag=" + strings.Join(parts, ",")
		if h.GeoQueue > 0 {
			line += fmt.Sprintf(" geo-queue=%d", h.GeoQueue)
		}
	}
	if _, durable := m["ec_wal_last_seq"]; durable {
		line += fmt.Sprintf(" ckpt=%d wal=%s", uint64(m["ec_wal_checkpoint_seq"]), fmtBytes(m["ec_wal_disk_bytes"]))
		if r := m["ec_wal_records_replayed_total"]; r > 0 {
			line += fmt.Sprintf(" replayed=%d", uint64(r))
		}
	}
	if _, lsmOn := m["ec_lsm_sstables"]; lsmOn {
		line += fmt.Sprintf(" lsm=%s/%dsst", fmtBytes(m["ec_lsm_disk_bytes"]), uint64(m["ec_lsm_sstables"]))
	}
	if p := m["ec_transfer_ranges_pending"]; p > 0 {
		line += fmt.Sprintf(" transfer-pending=%d", uint64(p))
	}
	if r := m["ec_transfer_ranges_total"]; r > 0 {
		line += fmt.Sprintf(" transferred-ranges=%d", uint64(r))
	}
	if h.Shards > 0 {
		line += fmt.Sprintf(" shards=%d", h.Shards)
	}
	// Lane 0 is the serial control loop; lanes 1..S are the execution
	// shards that replayed keyed records in parallel.
	if m["ec_wal_records_replayed_total"] > 0 && len(h.ReplayedByLane) > 1 {
		parts := make([]string, len(h.ReplayedByLane))
		for i, n := range h.ReplayedByLane {
			parts[i] = fmt.Sprintf("%d", n)
		}
		line += fmt.Sprintf(" replayed-by-lane=%s", strings.Join(parts, "/"))
	}
	return line
}

// scrapeMetrics fetches a node's /metrics and returns the un-labelled
// series as name -> value. Enough of the Prometheus text format for
// ecctl's own gauges; not a general parser.
func scrapeMetrics(httpAddr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, ln := range strings.Split(string(b), "\n") {
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		name, val, ok := strings.Cut(ln, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(val, "%g", &v); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

func fmtBytes(v float64) string {
	switch {
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMiB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKiB", v/(1<<10))
	default:
		return fmt.Sprintf("%dB", uint64(v))
	}
}

// cmdRing prints placement. Because vnode hashing is deterministic,
// ecctl rebuilds the exact ring the servers use from the member list
// alone — no network round trip needed to answer "who owns this key".
func cmdRing(args []string) error {
	fs := flag.NewFlagSet("ring", flag.ExitOnError)
	dir := stateDir(fs)
	diff := fs.String("diff", "", "keyspace fraction whose primary owner changes if a node joins (+id) or leaves (-id)")
	fs.Parse(args)
	st, err := loadState(*dir)
	if err != nil {
		return err
	}
	// Zone-aware when the cluster is zoned, so replica answers match
	// the servers' spread-across-zones placement exactly.
	r := ring.NewZoned(sortedIDs(st), ring.DefaultVirtualNodes, st.Zones)
	if *diff != "" {
		if len(*diff) < 2 {
			return fmt.Errorf("-diff wants +id or -id, got %q", *diff)
		}
		op, id := (*diff)[0], (*diff)[1:]
		var alt *ring.Ring
		switch op {
		case '+':
			alt = r.Join(id)
		case '-':
			alt = r.Leave(id)
		default:
			return fmt.Errorf("-diff wants +id or -id, got %q", *diff)
		}
		// Consistent hashing's promise is that a single membership change
		// moves ~1/n of primary ownership; sample it.
		const samples = 20000
		moved := 0
		for i := 0; i < samples; i++ {
			k := fmt.Sprintf("ring-sample-%d", i)
			if r.Owner(k) != alt.Owner(k) {
				moved++
			}
		}
		frac := float64(moved) / samples
		fmt.Printf("%s: %.1f%% of primary ownership moves (ideal for %d->%d nodes: %.1f%%)\n",
			*diff, 100*frac, r.Size(), alt.Size(), 100/float64(max(r.Size(), alt.Size())))
		return nil
	}
	if fs.NArg() >= 1 {
		key := fs.Arg(0)
		fmt.Printf("%s -> owner=%s replicas=%s\n", key, r.Owner(key), strings.Join(r.Replicas(key, 3), ","))
		return nil
	}
	load := r.Load()
	for _, id := range sortedIDs(st) {
		if z := st.Zones[id]; z != "" {
			fmt.Printf("%-8s %5.1f%% of keyspace  zone=%s\n", id, 100*load[id], z)
			continue
		}
		fmt.Printf("%-8s %5.1f%% of keyspace\n", id, 100*load[id])
	}
	return nil
}

// dialAny connects to the first reachable node.
func dialAny(st *clusterState) (*server.Client, string, error) {
	var lastErr error
	for _, id := range sortedIDs(st) {
		c, err := server.Dial(st.Peers[id], "ecctl")
		if err == nil {
			return c, id, nil
		}
		lastErr = err
	}
	return nil, "", fmt.Errorf("no node reachable: %w", lastErr)
}

// tokenPath is where ecctl persists its session token between
// invocations: each `ecctl get/put` is a fresh process and possibly a
// different node, yet the session guarantees hold across them because
// the token carries the session's read/write vectors.
func tokenPath(dir string) string { return filepath.Join(dir, "session-token.json") }

func loadToken(dir string) session.Token {
	var t session.Token
	if b, err := os.ReadFile(tokenPath(dir)); err == nil {
		json.Unmarshal(b, &t)
	}
	return t
}

func saveToken(dir string, t session.Token) {
	if t.Read == nil && t.Write == nil {
		return
	}
	b, _ := json.Marshal(t)
	os.WriteFile(tokenPath(dir), b, 0o644)
}

func cmdKV(op string, args []string) error {
	fs := flag.NewFlagSet(op, flag.ExitOnError)
	dir := stateDir(fs)
	node := fs.String("node", "", "target node (default: any reachable)")
	sla := fs.String("sla", "", "get only: consistency tier — strong, eventual, or bounded:<dur> (quorum model)")
	fs.Parse(args)
	st, err := loadState(*dir)
	if err != nil {
		return err
	}
	var tier geo.Tier
	if *sla != "" {
		if op != "get" {
			return fmt.Errorf("-sla applies to get only")
		}
		if tier, err = geo.ParseTier(*sla); err != nil {
			return err
		}
	}

	var c *server.Client
	if *node != "" {
		addr, ok := st.Peers[*node]
		if !ok {
			return fmt.Errorf("unknown node %q", *node)
		}
		c, err = server.Dial(addr, "ecctl")
	} else {
		c, _, err = dialAny(st)
	}
	if err != nil {
		return err
	}
	defer c.Close()
	if st.Model == "session" {
		c.SetToken(loadToken(*dir))
		defer func() { saveToken(*dir, c.Token()) }()
	}

	// Each run is a fresh client, which holds no causal context: a put or
	// a delete reads the key first and writes over what it read (Delete
	// does so by itself), so the CLI's writes of a key supersede each
	// other, through whichever node, as one client's would.
	switch op {
	case "put":
		if fs.NArg() != 2 {
			return fmt.Errorf("usage: ecctl put <key> <value>")
		}
		if _, err := c.GetSiblings(fs.Arg(0)); err != nil {
			return err
		}
		return c.Put(fs.Arg(0), []byte(fs.Arg(1)))
	case "get":
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: ecctl get [-sla tier] <key>")
		}
		if *sla != "" {
			v, found, delivered, staleMs, err := c.GetSLA(fs.Arg(0), tier)
			if err != nil {
				return err
			}
			if staleMs >= 0 {
				fmt.Fprintf(os.Stderr, "sla: requested=%s delivered=%s staleness=%dms\n", tier.Kind, delivered, staleMs)
			} else {
				fmt.Fprintf(os.Stderr, "sla: requested=%s delivered=%s staleness=unknown\n", tier.Kind, delivered)
			}
			if !found {
				return fmt.Errorf("key %q not found", fs.Arg(0))
			}
			fmt.Println(string(v))
			return nil
		}
		vals, err := c.GetSiblings(fs.Arg(0))
		if err != nil {
			return err
		}
		if len(vals) == 0 {
			return fmt.Errorf("key %q not found", fs.Arg(0))
		}
		for _, v := range vals { // concurrent versions, one a line
			fmt.Println(string(v))
		}
		return nil
	case "del":
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: ecctl del <key>")
		}
		return c.Delete(fs.Arg(0))
	}
	return nil
}

// cmdSmoke is the CI acceptance check: writes land, reads see them from
// every node, and (model=session) read-your-writes survives a reconnect
// to a different node via the session token.
func cmdSmoke(args []string) error {
	fs := flag.NewFlagSet("smoke", flag.ExitOnError)
	dir := stateDir(fs)
	fs.Parse(args)
	st, err := loadState(*dir)
	if err != nil {
		return err
	}
	ids := sortedIDs(st)

	// Reach every live node; at least one must answer.
	clients := map[string]*server.Client{}
	for _, id := range ids {
		if c, err := server.Dial(st.Peers[id], "smoke-"+id); err == nil {
			clients[id] = c
			defer c.Close()
		}
	}
	if len(clients) == 0 {
		return fmt.Errorf("no node reachable")
	}
	first := ""
	for _, id := range ids {
		if _, ok := clients[id]; ok {
			first = id
			break
		}
	}

	key := fmt.Sprintf("smoke-%d", os.Getpid())
	if err := clients[first].Put(key, []byte("alive")); err != nil {
		return fmt.Errorf("put via %s: %w", first, err)
	}

	// Every reachable node must serve the value (gossip: eventually).
	for id, c := range clients {
		deadline := time.Now().Add(15 * time.Second)
		for {
			v, found, err := c.Get(key)
			if err == nil && found && string(v) == "alive" {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("node %s never served the write: %q/%v/%v", id, v, found, err)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	fmt.Printf("smoke: put/get ok on %d/%d nodes\n", len(clients), len(ids))

	if st.Model == "session" {
		// RYW across a reconnect to a different node: write at one node,
		// carry the token, read at another immediately.
		var otherID string
		for _, id := range ids {
			if id != first {
				if _, ok := clients[id]; ok {
					otherID = id
					break
				}
			}
		}
		if otherID != "" {
			w, err := server.Dial(st.Peers[first], "smoke-ryw")
			if err != nil {
				return err
			}
			if err := w.Put(key, []byte("rewritten")); err != nil {
				w.Close()
				return err
			}
			token := w.Token()
			w.Close()
			r, err := server.Dial(st.Peers[otherID], "smoke-ryw")
			if err != nil {
				return err
			}
			defer r.Close()
			r.SetToken(token)
			v, found, err := r.Get(key)
			if err != nil || !found || string(v) != "rewritten" {
				return fmt.Errorf("read-your-writes violated across %s->%s: %q/%v/%v", first, otherID, v, found, err)
			}
			fmt.Printf("smoke: read-your-writes held across reconnect %s -> %s\n", first, otherID)
		}
	}
	fmt.Println("smoke: ok")
	return nil
}

// cmdBench drives closed-loop load against the cluster: -clients
// worker goroutines issue puts/gets back-to-back over -conns shared
// connections. Workers sharing a connection pipeline — each request is
// tagged with a sequence number and the responses demultiplex — which
// is exactly the fast path this binary exists to exercise: batched
// frames on the wire, concurrent dispatch on the server, and WAL
// group commit across the in-flight writes.
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	dir := stateDir(fs)
	workers := fs.Int("clients", 32, "concurrent worker goroutines")
	conns := fs.Int("conns", 4, "connections the workers share")
	dur := fs.Duration("duration", 5*time.Second, "measurement length")
	valSize := fs.Int("value", 128, "value size in bytes")
	keys := fs.Int("keys", 1000, "distinct keys")
	getFrac := fs.Float64("get", 0.5, "fraction of operations that are reads")
	node := fs.String("node", "", "target node (default: any reachable)")
	fs.Parse(args)
	st, err := loadState(*dir)
	if err != nil {
		return err
	}
	if *workers < 1 || *conns < 1 || *conns > *workers {
		return fmt.Errorf("need clients >= conns >= 1")
	}

	addr := ""
	if *node != "" {
		var ok bool
		if addr, ok = st.Peers[*node]; !ok {
			return fmt.Errorf("unknown node %q", *node)
		}
	} else {
		c, id, err := dialAny(st)
		if err != nil {
			return err
		}
		c.Close()
		addr = st.Peers[id]
	}

	clients := make([]*server.Client, *conns)
	for i := range clients {
		c, err := server.Dial(addr, fmt.Sprintf("bench-%d-%d", os.Getpid(), i))
		if err != nil {
			return err
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
	fmt.Printf("bench: model=%s node=%s clients=%d conns=%d value=%dB mix=%.0f%%get\n",
		st.Model, addr, *workers, *conns, *valSize, 100**getFrac)
	fmt.Printf("bench: %d ops in %s = %.0f ops/sec (%d errors)\n",
		ops, elapsed.Round(time.Millisecond), float64(ops)/elapsed.Seconds(), errs)
	fmt.Printf("bench: latency p50=%s p99=%s\n", q(0.50), q(0.99))
	if cpu1, ok := serverCPU(st); ok && cpuOK {
		busy := (cpu1 - cpu0).Seconds()
		fmt.Printf("bench: server cpu %.2fs user+sys over %s = %.2f cores busy\n",
			busy, elapsed.Round(time.Millisecond), busy/elapsed.Seconds())
	}
	if errs > 0 {
		return fmt.Errorf("%d/%d operations failed", errs, ops)
	}
	return nil
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

func sortedIDs(st *clusterState) []string {
	ids := make([]string, 0, len(st.Peers))
	for id := range st.Peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
