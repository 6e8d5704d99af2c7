package lsm

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/wire"
	"repro/internal/wiretest"
)

var manifestCases = []manifest{
	{},
	{nextID: 1, tables: []uint64{0}},
	{nextID: 300, tables: []uint64{299, 12, 1 << 33}},
}

func TestManifestRoundTrip(t *testing.T) {
	for _, m := range manifestCases {
		got, err := decodeManifest(appendManifest(nil, m))
		if err != nil {
			t.Fatalf("decodeManifest(appendManifest(%+v)): %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("manifest round trip:\n got  %+v\n want %+v", got, m)
		}
	}
}

// A manifest cut short anywhere, or followed by anything, is an error,
// and neither is mistaken for an old format.
func TestManifestRejectsTruncationAndTrailingBytes(t *testing.T) {
	for _, m := range manifestCases {
		b := appendManifest(nil, m)
		for cut := 0; cut < len(b); cut++ {
			if _, err := decodeManifest(b[:cut]); err == nil || errors.Is(err, wire.ErrFormatTooOld) {
				t.Fatalf("%+v cut to %d of %d bytes: got %v, want a malformed-input error", m, cut, len(b), err)
			}
		}
		if _, err := decodeManifest(append(b, 0)); err == nil || errors.Is(err, wire.ErrFormatTooOld) {
			t.Fatalf("%+v plus one byte: got %v, want a malformed-input error", m, err)
		}
	}
}

// What the commits before the binary layouts wrote starts with the length
// byte of a gob stream, and the binary layout before this one starts with
// manifestFormatSeq: both are refused as too old. Any other unknown byte
// is not.
func TestManifestFormatByte(t *testing.T) {
	b := appendManifest(nil, manifestCases[1])
	for _, lead := range []byte{0x01, 0x2C, 0x7F, 0xF8, 0xFF, manifestFormatSeq} {
		b[0] = lead
		if _, err := decodeManifest(b); !errors.Is(err, wire.ErrFormatTooOld) {
			t.Errorf("manifest led by %#x: got %v, want wire.ErrFormatTooOld", lead, err)
		}
	}
	b[0] = manifestFormat + 1
	if _, err := decodeManifest(b); err == nil || errors.Is(err, wire.ErrFormatTooOld) {
		t.Errorf("manifest led by %#x: got %v, want an unknown-format error", b[0], err)
	}
}

// FuzzManifestDecode: arbitrary bytes never panic the manifest decoder,
// and what decodes re-encodes to the same manifest.
func FuzzManifestDecode(f *testing.F) {
	for _, m := range manifestCases {
		f.Add(appendManifest(nil, m))
	}
	f.Add([]byte{manifestFormat, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // a count far past the bytes
	f.Add([]byte{0x2C, 0xFF, 0x81})                                // gob
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		again, err := decodeManifest(appendManifest(nil, m))
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("manifest %+v re-encodes to %+v, %v", m, again, err)
		}
	})
}

func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(ents))
	for _, de := range ents {
		b, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[de.Name()] = string(b)
	}
	return files
}

// Open sweeps every .sst its manifest does not list. A manifest it cannot
// read lists nothing, so Open must fail before the sweep: refusing a data
// directory may not be what destroys it. The directories are the ones
// earlier format generations wrote: a gob manifest (v1), and the binary
// manifest whose tables carried sequence numbers (v2).
func TestRefusedOpenLeavesDirectoryUntouched(t *testing.T) {
	for _, gen := range []string{"v1", "v2"} {
		dir := filepath.Join(t.TempDir(), gen, "shard-0")
		wiretest.CopyTree(t, filepath.Join("..", "quorum", "testdata", gen, "lsm", "lsm", "shard-0"), dir)
		before := readDir(t, dir)
		if len(before) < 2 {
			t.Fatalf("%s fixture holds %d files, want a manifest and a table", gen, len(before))
		}
		e, err := Open(Options{Dir: dir})
		if err == nil {
			e.Close()
			t.Fatalf("opened the %s directory", gen)
		}
		if !errors.Is(err, wire.ErrFormatTooOld) {
			t.Fatalf("%s: refused with %v, want wire.ErrFormatTooOld", gen, err)
		}
		if after := readDir(t, dir); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: a refused Open changed the directory: %d files before, %d after", gen, len(before), len(after))
		}
	}
}
