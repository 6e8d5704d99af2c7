package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata/ from this run")

// TestQuorumScenarioGolden pins what `ecdemo -model quorum` prints at
// seed 1: each read and write on both sides of the partition, with its
// time. The scenario is a pure function of the seed, so the output is
// the same on any host. To rewrite the file:
//
//	go test ./cmd/ecdemo -run TestQuorumScenarioGolden -update
func TestQuorumScenarioGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-model", "quorum"}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("ecdemo exited %d, stderr %q", code, stderr.String())
	}
	path := filepath.Join("testdata", "quorum_seed1.golden")
	if *update {
		if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	if got := stdout.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestUnknownModelIsAUsageError: an unknown -model prints the usage line
// on stderr, nothing on stdout, and exits 2.
func TestUnknownModelIsAUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-model", "nope"}, &stdout, &stderr)
	if want := "ecdemo: unknown model \"nope\"\n"; code != 2 || stderr.String() != want || stdout.Len() != 0 {
		t.Fatalf("exit %d, stderr %q, stdout %q; want exit 2, stderr %q", code, stderr.String(), stdout.String(), want)
	}
}
