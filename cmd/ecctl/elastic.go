package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/server"
)

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
func cmdAddNode(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("add-node", stderr)
	dir := stateDir(fs)
	timeout := fs.Duration("timeout", 2*time.Minute, "how long to wait for catch-up")
	zoneFlag := fs.String("zone", "", "joiner's zone (default: least-populated declared zone)")
	if err := fs.Parse(args); err != nil {
		return err
	}
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
		fmt.Fprintf(stdout, "add-node: %s up (peer=%s http=%s pid=%d zone=%s), joining...\n", id, st.Peers[id], st.HTTP[id], st.PIDs[id], zone)
	} else {
		fmt.Fprintf(stdout, "add-node: %s up (peer=%s http=%s pid=%d), joining...\n", id, st.Peers[id], st.HTTP[id], st.PIDs[id])
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
				fmt.Fprintf(stdout, "add-node: %s caught up at epoch %d; cluster is %d nodes\n", id, rs.Epoch, len(rs.Members))
				return nil
			}
			if rs.TransferDone != lastDone {
				lastDone = rs.TransferDone
				fmt.Fprintf(stdout, "add-node: %s %s, ranges %d/%d\n", id, rs.State, rs.TransferDone, rs.TransferTotal)
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
func cmdDecommission(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("decommission", stderr)
	dir := stateDir(fs)
	timeout := fs.Duration("timeout", 2*time.Minute, "how long to wait for handoff")
	if err := fs.Parse(args); err != nil {
		return err
	}
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
	fmt.Fprintf(stdout, "decommission: %s draining...\n", id)

	deadline := time.Now().Add(*timeout)
	lastState := ""
	for {
		rs, _, err := c.Status()
		if err == nil {
			if rs.State == "left" {
				fmt.Fprintf(stdout, "decommission: %s left at epoch %d; survivors hold every arc\n", id, rs.Epoch)
				break
			}
			if rs.State != lastState {
				lastState = rs.State
				fmt.Fprintf(stdout, "decommission: %s %s (pending hints %d)\n", id, rs.State, rs.PendingHints)
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
			fmt.Fprintf(stdout, "decommission: stopped %s (pid %d)\n", id, pid)
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
