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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
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
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "ecctl %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
}

// run runs the subcommand args names, with the rest of args as its
// arguments, writing its output to stdout and its diagnostics to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		return errUsage
	}
	cmd, args := args[0], args[1:]
	switch cmd {
	case "up":
		return cmdUp(args, stdout, stderr)
	case "down":
		return cmdDown(args, stdout, stderr)
	case "kill":
		return cmdKill(args, stdout, stderr)
	case "restart":
		return cmdRestart(args, stdout, stderr)
	case "add-node":
		return cmdAddNode(args, stdout, stderr)
	case "decommission":
		return cmdDecommission(args, stdout, stderr)
	case "status":
		return cmdStatus(args, stdout, stderr)
	case "ring":
		return cmdRing(args, stdout, stderr)
	case "put", "get", "del":
		return cmdKV(cmd, args, stdout, stderr)
	case "bench":
		_, err := cmdBench(args, stdout, stderr)
		return err
	}
	return errUsage
}

// errUsage is run's answer to a missing or unknown subcommand.
var errUsage = errors.New("usage: ecctl {up|down|kill|restart|add-node|decommission|status|ring|put|get|del|bench} [args]")

// newFlags returns subcommand name's flags: a bad one is an error
// Parse returns, and the usage goes to stderr.
func newFlags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
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

func sortedIDs(st *clusterState) []string {
	ids := make([]string, 0, len(st.Peers))
	for id := range st.Peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
