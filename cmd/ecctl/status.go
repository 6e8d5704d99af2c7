package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"repro/internal/ring"
	"repro/internal/server"
)

func cmdStatus(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("status", stderr)
	dir := stateDir(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := loadState(*dir)
	if err != nil {
		return err
	}
	for _, id := range sortedIDs(st) {
		resp, err := http.Get("http://" + st.HTTP[id] + "/healthz")
		if err != nil {
			fmt.Fprintf(stdout, "%-8s DOWN (%v)\n", id, err)
			continue
		}
		var h server.Status
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			fmt.Fprintf(stdout, "%-8s ERROR (%v)\n", id, err)
			continue
		}
		m, _ := scrapeMetrics(st.HTTP[id]) // nil when unreadable: the line leaves its figures out
		fmt.Fprintln(stdout, statusLine(id, h, m))
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

// scrapeMetrics fetches a node's /metrics and returns its series as
// name -> value, a labelled series under its name with its labels
// (`ec_peer_phi{peer="node1"}`). Enough of the Prometheus text format
// for ecctl's own gauges; not a general parser.
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
		if !ok {
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
func cmdRing(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("ring", stderr)
	dir := stateDir(fs)
	diff := fs.String("diff", "", "keyspace fraction whose primary owner changes if a node joins (+id) or leaves (-id)")
	if err := fs.Parse(args); err != nil {
		return err
	}
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
		fmt.Fprintf(stdout, "%s: %.1f%% of primary ownership moves (ideal for %d->%d nodes: %.1f%%)\n",
			*diff, 100*frac, r.Size(), alt.Size(), 100/float64(max(r.Size(), alt.Size())))
		return nil
	}
	if fs.NArg() >= 1 {
		key := fs.Arg(0)
		fmt.Fprintf(stdout, "%s -> owner=%s replicas=%s\n", key, r.Owner(key), strings.Join(r.Replicas(key, 3), ","))
		return nil
	}
	load := r.Load()
	for _, id := range sortedIDs(st) {
		if z := st.Zones[id]; z != "" {
			fmt.Fprintf(stdout, "%-8s %5.1f%% of keyspace  zone=%s\n", id, 100*load[id], z)
			continue
		}
		fmt.Fprintf(stdout, "%-8s %5.1f%% of keyspace\n", id, 100*load[id])
	}
	return nil
}
