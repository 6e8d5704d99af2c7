package lsm

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

func buildTableBytes(t testing.TB, pairs []storage.Pair, blockBytes int) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.sst")
	tab, err := writeTable(path, pairs, blockBytes, 10)
	if err != nil {
		t.Fatalf("writeTable: %v", err)
	}
	tab.close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read table: %v", err)
	}
	return b
}

func TestSSTableRoundTrip(t *testing.T) {
	var pairs []storage.Pair
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("key-%04d", i)
		val := []byte(fmt.Sprintf("%s/v%d", key, i%3))
		if i%17 == 0 {
			val = []byte{}
		}
		pairs = append(pairs, storage.Pair{Key: key, Value: val})
	}

	path := filepath.Join(t.TempDir(), "t.sst")
	tab, err := writeTable(path, pairs, 512, 10) // small blocks: many index entries
	if err != nil {
		t.Fatalf("writeTable: %v", err)
	}
	defer tab.close()

	if tab.keys != len(pairs) {
		t.Fatalf("keys = %d, want %d", tab.keys, len(pairs))
	}
	if len(tab.blocks) < 2 {
		t.Fatalf("want multiple blocks, got %d", len(tab.blocks))
	}
	for _, p := range pairs {
		v, ok, skipped, err := tab.get(p.Key)
		if err != nil || !ok || skipped {
			t.Fatalf("get(%q) = ok=%v skipped=%v err=%v", p.Key, ok, skipped, err)
		}
		if !bytes.Equal(v, p.Value) || v == nil {
			t.Fatalf("get(%q) = %#v, want %#v", p.Key, v, p.Value)
		}
	}
	if _, ok, _, err := tab.get("key-9999"); ok || err != nil {
		t.Fatalf("get(absent) = ok=%v err=%v", ok, err)
	}

	var scanned []string
	err = tab.scanRange("key-0100", "key-0110", func(key string, _ []byte) bool {
		scanned = append(scanned, key)
		return true
	})
	if err != nil {
		t.Fatalf("scanRange: %v", err)
	}
	if len(scanned) != 10 || scanned[0] != "key-0100" || scanned[9] != "key-0109" {
		t.Fatalf("scanRange[0100,0110) = %v", scanned)
	}
}

// TestSSTableDetectsCorruption flips bytes across the whole file and
// requires either a clean parse failure or an IO-layer error on read —
// never a wrong answer accepted silently at the structural level.
func TestSSTableDetectsCorruption(t *testing.T) {
	clean := buildTableBytes(t, []storage.Pair{
		{Key: "alpha", Value: []byte("one")},
		{Key: "beta", Value: []byte("two")},
	}, 0)
	dir := t.TempDir()
	for off := 0; off < len(clean); off += 7 {
		mut := append([]byte(nil), clean...)
		mut[off] ^= 0x40
		path := filepath.Join(dir, fmt.Sprintf("c%d.sst", off))
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		tab, err := openTable(path)
		if err != nil {
			continue // rejected at open: good
		}
		// Structure parsed (corruption was inside a data block): the
		// block CRC must catch it at read time.
		_, _, _, gerr := tab.get("alpha")
		_, _, _, gerr2 := tab.get("beta")
		tab.close()
		if gerr == nil && gerr2 == nil {
			t.Fatalf("corruption at offset %d accepted silently", off)
		}
	}
}

// parseBlock is the reference the in-place walker is held to: every
// group of a block, decoded in turn as scanRange reads them.
func parseBlock(block []byte) ([]storage.Pair, error) {
	var out []storage.Pair
	c := &cursor{b: block}
	for !c.done() {
		key, val, err := c.group()
		if err != nil {
			return nil, err
		}
		out = append(out, storage.Pair{Key: string(key), Value: val})
	}
	return out, nil
}

// checkWalkerAgrees holds findInBlock to parseBlock on one block: every
// key the block holds is found with the value parsed for it. A block
// whose keys do not ascend is skipped: no writer produces one, and the
// walker rightly stops at the first greater key.
func checkWalkerAgrees(t *testing.T, block []byte) {
	t.Helper()
	groups, err := parseBlock(block)
	if err != nil {
		return
	}
	for i := 1; i < len(groups); i++ {
		if groups[i].Key <= groups[i-1].Key {
			return
		}
	}
	for _, g := range groups {
		got, ok, err := findInBlock(block, g.Key)
		if err != nil || !ok || !bytes.Equal(got, g.Value) {
			t.Fatalf("findInBlock(%q) = %q ok=%v err=%v, parseBlock says %q", g.Key, got, ok, err, g.Value)
		}
	}
}

// FuzzSSTableDecode throws arbitrary bytes at the table parser and the
// full read path, and at the in-place block walker directly (a block's
// CRC keeps mutated bytes from ever reaching it through a table). Any
// input may be rejected; none may panic; and what the walker accepts it
// reads as parseBlock does.
func FuzzSSTableDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(buildTableBytes(f, []storage.Pair{
		{Key: "a", Value: []byte("x")},
		{Key: "b", Value: []byte{}},
		{Key: "c", Value: []byte("y")},
	}, 64))
	seed := buildTableBytes(f, []storage.Pair{{Key: "longer-key-0001", Value: make([]byte, 300)}}, 0)
	f.Add(seed)
	f.Add(seed[:len(seed)-10]) // truncated footer
	f.Add(seed[5:])            // shifted offsets
	// A bare data block, for the walker: three groups, one empty.
	var block []byte
	for _, p := range []storage.Pair{
		{Key: "a", Value: []byte("x")},
		{Key: "longer-key-0001", Value: []byte{}},
		{Key: "zzz", Value: []byte("m")},
	} {
		block = appendGroup(block, p)
	}
	f.Add(block)
	f.Add(block[:len(block)-3]) // cut inside the last group

	f.Fuzz(func(t *testing.T, data []byte) {
		// The walker on the raw bytes: the skip path over whatever they
		// hold, then agreement with the reference parse.
		for _, key := range []string{"", "a", "longer-key-0001", "m", "zzz", "\xff\xff"} {
			findInBlock(data, key)
		}
		checkWalkerAgrees(t, data)

		path := filepath.Join(t.TempDir(), "fuzz.sst")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		tab, err := openTable(path)
		if err != nil {
			return
		}
		defer tab.close()
		// Exercise every decode path; errors are fine, panics are not.
		tab.get("a")
		tab.get("longer-key-0001")
		tab.get("zzz")
		var scanned []storage.Pair
		err = tab.scanRange("", "", func(key string, val []byte) bool {
			scanned = append(scanned, storage.Pair{Key: key, Value: val})
			return true
		})
		if err != nil {
			return
		}
		// An accepted table: a point lookup of every key it scans agrees
		// with the scan (keys in written order; see checkWalkerAgrees).
		for i := 1; i < len(scanned); i++ {
			if scanned[i].Key <= scanned[i-1].Key {
				return
			}
		}
		for _, p := range scanned {
			got, ok, skipped, err := tab.get(p.Key)
			if skipped {
				continue // a bloom section that is not this table's
			}
			if err != nil || !ok || !bytes.Equal(got, p.Value) {
				t.Fatalf("get(%q) = %q ok=%v err=%v, scanRange says %q", p.Key, got, ok, err, p.Value)
			}
		}
	})
}
