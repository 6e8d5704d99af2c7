package main

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"os/exec"
	"strconv"
	"testing"
	"time"
)

// A node ecctl spawned and that has exited is reaped while ecctl still
// runs, so an in-process caller does not collect zombies.
func TestSpawnNodeReapsExitedNode(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc to read process states from")
	}
	bin, err := exec.LookPath("true") // exits at once, whatever its flags
	if err != nil {
		t.Skip("no `true` binary")
	}
	st := &clusterState{
		Model: "quorum",
		Peers: map[string]string{"node0": "127.0.0.1:1"},
		HTTP:  map[string]string{"node0": "127.0.0.1:2"},
		PIDs:  map[string]int{},
		Data:  map[string]string{},
		Seeds: map[string]int64{"node0": 1},
	}
	if err := spawnNode(t.TempDir(), bin, st, "node0"); err != nil {
		t.Fatal(err)
	}
	stat := "/proc/" + strconv.Itoa(st.PIDs["node0"]) + "/stat"
	state := ""
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		b, err := os.ReadFile(stat)
		if errors.Is(err, fs.ErrNotExist) {
			return // exited and reaped
		}
		if err != nil {
			t.Fatal(err)
		}
		// The state follows the parenthesised command name.
		if i := bytes.LastIndexByte(b, ')'); i >= 0 && i+2 < len(b) {
			state = string(b[i+2])
		}
	}
	t.Fatalf("%s still reads state %q 5 s after spawning a process that exits at once, want it reaped", stat, state)
}
