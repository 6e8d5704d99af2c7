package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata/ from this run")

// TestSeed1Golden pins every table and series `ecbench -seed 1` prints,
// byte for byte: a change that claims to leave the experiments alone is
// checked against it, not asserted by hand. Each experiment is a pure
// function of its seed, so the run is the same on any host. A change that
// means to move a table regenerates the file and shows the diff:
//
//	go test ./internal/experiments -run TestSeed1Golden -update
func TestSeed1Golden(t *testing.T) {
	var out bytes.Buffer
	for _, res := range RunConcurrently(All(), 1) {
		fmt.Fprintln(&out, res.String()) // as cmd/ecbench prints each result
	}
	path := filepath.Join("testdata", "ecbench_seed1.golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("ecbench -seed 1 differs from %s at line %d:\n got  %q\n want %q", path, i+1, g, w)
			}
		}
	}
}
