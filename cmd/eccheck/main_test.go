package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata/ from this run")

// TestDefaultTableGolden pins what `eccheck` prints at seed 1, every
// model's verdicts included (quorum NO/yes, strong yes/yes, ...). Each
// model's history is a pure function of the seed, so the table is the
// same on any host; a change that moves a verdict or the order a quorum
// read takes its steps in shows here. To rewrite the file:
//
//	go test ./cmd/eccheck -run TestDefaultTableGolden -update
func TestDefaultTableGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("eccheck exited %d, stderr %q", code, stderr.String())
	}
	path := filepath.Join("testdata", "eccheck_seed1.golden")
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
	if want := "eccheck: unknown model \"nope\"\n"; code != 2 || stderr.String() != want || stdout.Len() != 0 {
		t.Fatalf("exit %d, stderr %q, stdout %q; want exit 2, stderr %q", code, stderr.String(), stdout.String(), want)
	}
}
