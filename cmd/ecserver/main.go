// Command ecserver runs one cluster node: a TCP transport hosting a
// consistency model (gossip, quorum, or session), the client protocol
// on the same port, and an HTTP sidecar serving /metrics and /healthz.
//
// Usage:
//
//	ecserver -id node0 -model quorum \
//	  -peers node0=127.0.0.1:7000,node1=127.0.0.1:7001,node2=127.0.0.1:7002 \
//	  -http 127.0.0.1:7100 -data-dir /var/lib/ec/node0
//
// Every node in a cluster must be started with the same -peers map and
// the same -model. The node listens on its own entry in the map (or
// -listen to override, e.g. to bind 0.0.0.0 behind NAT). SIGINT/SIGTERM
// shut the node down cleanly.
//
// With -data-dir the node journals every accepted write to a segmented
// WAL before acknowledging it (-fsync sync), checkpoints periodically,
// and on restart replays the log so a kill -9 loses nothing that was
// acked. Without it the node is memory-only, as before.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"repro/internal/geo"
	"repro/internal/server"
	"repro/internal/wal"
)

func main() {
	var (
		id      = flag.String("id", "", "this node's id (must appear in -peers)")
		model   = flag.String("model", "quorum", "consistency model: gossip, quorum, or session")
		peers   = flag.String("peers", "", "comma-separated id=host:port for every node, this one included")
		listen  = flag.String("listen", "", "peer-link bind address (default: own entry in -peers)")
		httpAd  = flag.String("http", "", "metrics/health listen address (empty disables)")
		n       = flag.Int("n", 0, "quorum replication factor (0 = default)")
		r       = flag.Int("r", 0, "quorum read size (0 = default)")
		w       = flag.Int("w", 0, "quorum write size (0 = default)")
		seed    = flag.Int64("seed", 1, "randomness seed")
		quiet   = flag.Bool("quiet", false, "suppress diagnostics")
		dataDir = flag.String("data-dir", "", "durable state directory: WAL + checkpoints (empty = in-memory only)")
		fsync   = flag.String("fsync", "sync", "WAL fsync policy: sync (fsync before ack), batch, or none")
		ckpt    = flag.Duration("checkpoint-interval", 0, "checkpoint snapshot interval (0 = default 5s, negative disables)")
		shards  = flag.Int("shards", 0, "execution shards per node: parallel key-range executors on the quorum hot path (0 = GOMAXPROCS; each shard loop runs beside the serial loop)")
		join    = flag.Bool("join", false, "boot as a live joiner: own nothing until the cluster admits this node (quorum model; see ecctl add-node)")
		xferRt  = flag.Int("transfer-rate", 0, "elasticity transfer throttle, bytes/sec per source (0 = default)")
		xferBt  = flag.Int("transfer-batch", 0, "bytes of entries in one batch shipped to a peer: transfer, handoff, anti-entropy, geo (0 = default 64KiB)")
		engine  = flag.String("engine", "", "storage engine: mem (default) or lsm (disk-resident, quorum model, requires -data-dir)")
		zone    = flag.String("zone", "", "this node's zone name (geo-replication)")
		zones   = flag.String("zones", "", "comma-separated node=zone for every zoned node (all nodes must agree)")
		geoA    = flag.Bool("geo-async", false, "ack quorum writes on the intra-zone sub-quorum; stream cross-zone replicas asynchronously")
		xzDelay = flag.Duration("xzone-delay", 0, "artificial delay injected per frame to peers in other zones (local cross-zone RTT emulation)")
	)
	flag.Parse()

	peerMap, err := parsePeers(*peers)
	if err != nil {
		fatalf("%v", err)
	}
	zoneMap, err := geo.ParseZoneSpec(*zones)
	if err != nil {
		fatalf("%v", err)
	}
	policy, err := wal.ParsePolicy(*fsync)
	if err != nil {
		fatalf("%v", err)
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "ecserver: "+format+"\n", args...)
	}
	if *quiet {
		logf = nil
	}

	s, err := server.New(server.Config{
		ID:         *id,
		Model:      *model,
		Peers:      peerMap,
		ListenPeer: *listen,
		ListenHTTP: *httpAd,
		N:          *n,
		R:          *r,
		W:          *w,
		Seed:       *seed,
		Shards:     *shards,
		Engine:     *engine,
		Logf:       logf,

		DataDir:            *dataDir,
		Fsync:              policy,
		CheckpointInterval: *ckpt,

		Joining:       *join,
		TransferRate:  *xferRt,
		TransferBatch: *xferBt,

		Zone:       *zone,
		Zones:      zoneMap,
		GeoAsync:   *geoA,
		XZoneDelay: *xzDelay,
	})
	if err != nil {
		fatalf("%v", err)
	}

	members := make([]string, 0, len(peerMap))
	for m := range peerMap {
		members = append(members, m)
	}
	sort.Strings(members)
	fmt.Printf("ecserver %s: model=%s peers=%s listening on %s", *id, *model, strings.Join(members, ","), s.Addr())
	if s.HTTPAddr() != "" {
		fmt.Printf(" http=%s", s.HTTPAddr())
	}
	if *dataDir != "" {
		fmt.Printf(" data=%s fsync=%s", *dataDir, policy)
	}
	if *engine != "" {
		fmt.Printf(" engine=%s", *engine)
	}
	if *zone != "" {
		fmt.Printf(" zone=%s", *zone)
		if *geoA {
			fmt.Printf(" geo-async")
		}
	}
	fmt.Println()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	s.Close()
}

// parsePeers parses "id=addr,id=addr,..." into the cluster peer map.
func parsePeers(s string) (map[string]string, error) {
	if s == "" {
		return nil, fmt.Errorf("-peers is required (id=host:port,...)")
	}
	m := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=host:port)", part)
		}
		if _, dup := m[id]; dup {
			return nil, fmt.Errorf("duplicate peer id %q", id)
		}
		m[id] = addr
	}
	return m, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ecserver: "+format+"\n", args...)
	os.Exit(1)
}
