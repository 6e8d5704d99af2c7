package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

// latest reads a key's newest version: no seq is above it.
const latest = ^uint64(0)

func buildTableBytes(t testing.TB, entries []tableEntry, blockBytes int) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.sst")
	tab, err := writeTable(path, entries, blockBytes, 10)
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
	var entries []tableEntry
	seq := uint64(0)
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("key-%04d", i)
		var vs []storage.Version
		for j := 0; j <= i%3; j++ {
			seq++
			v := storage.Version{Seq: seq, Value: []byte(fmt.Sprintf("%s/v%d", key, j))}
			if i%17 == 0 && j == i%3 {
				v.Tombstone = true
				v.Value = nil
			}
			vs = append(vs, v)
		}
		entries = append(entries, tableEntry{key: key, versions: vs})
	}

	path := filepath.Join(t.TempDir(), "t.sst")
	tab, err := writeTable(path, entries, 512, 10) // small blocks: many index entries
	if err != nil {
		t.Fatalf("writeTable: %v", err)
	}
	defer tab.close()

	if tab.keys != len(entries) {
		t.Fatalf("keys = %d, want %d", tab.keys, len(entries))
	}
	if tab.minSeq != 1 || tab.maxSeq != seq {
		t.Fatalf("seq range [%d,%d], want [1,%d]", tab.minSeq, tab.maxSeq, seq)
	}
	if len(tab.blocks) < 2 {
		t.Fatalf("want multiple blocks, got %d", len(tab.blocks))
	}

	for _, e := range entries {
		for i, want := range e.versions {
			// A read at a version's own seq, and just below the next one's,
			// resolves to that version.
			ats := []uint64{want.Seq, latest}
			if i+1 < len(e.versions) {
				ats[1] = e.versions[i+1].Seq - 1
			}
			for _, at := range ats {
				v, ok, skipped, err := tab.get(e.key, at)
				if err != nil || !ok || skipped {
					t.Fatalf("get(%q, %d) = ok=%v skipped=%v err=%v", e.key, at, ok, skipped, err)
				}
				if v.Seq != want.Seq || v.Tombstone != want.Tombstone || string(v.Value) != string(want.Value) {
					t.Fatalf("get(%q, %d) = %+v, want %+v", e.key, at, v, want)
				}
			}
		}
		if _, ok, _, err := tab.get(e.key, e.versions[0].Seq-1); ok || err != nil {
			t.Fatalf("get(%q) below its first seq = ok=%v err=%v", e.key, ok, err)
		}
	}
	if _, ok, _, err := tab.get("key-9999", latest); ok || err != nil {
		t.Fatalf("get(absent) = ok=%v err=%v", ok, err)
	}

	var scanned []string
	err = tab.scanRange("key-0100", "key-0110", func(key string, vs []storage.Version) bool {
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
	entries := []tableEntry{
		{key: "alpha", versions: []storage.Version{{Seq: 1, Value: []byte("one")}}},
		{key: "beta", versions: []storage.Version{{Seq: 2, Value: []byte("two")}}},
	}
	clean := buildTableBytes(t, entries, 0)
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
		_, _, _, gerr := tab.get("alpha", latest)
		_, _, _, gerr2 := tab.get("beta", latest)
		tab.close()
		if gerr == nil && gerr2 == nil {
			t.Fatalf("corruption at offset %d accepted silently", off)
		}
	}
}

// parseBlock is the reference the in-place walker is held to: every
// group of a block through parseGroup, as scanRange reads it.
func parseBlock(block []byte) ([]tableEntry, error) {
	var out []tableEntry
	c := &cursor{b: block}
	for !c.done() {
		key, vs, err := parseGroup(c)
		if err != nil {
			return nil, err
		}
		out = append(out, tableEntry{key: key, versions: vs})
	}
	return out, nil
}

// checkWalkerAgrees holds findInBlock to parseBlock on one block: for
// every key the block holds, at every seq around each of its versions,
// the walker picks what newestAtMost picks from the parsed history. A
// block whose keys do not ascend is skipped: no writer produces one, and
// the walker rightly stops at the first greater key.
func checkWalkerAgrees(t *testing.T, block []byte) {
	t.Helper()
	groups, err := parseBlock(block)
	if err != nil {
		return
	}
	for i := 1; i < len(groups); i++ {
		if groups[i].key <= groups[i-1].key {
			return
		}
	}
	for _, g := range groups {
		ats := []uint64{0, latest}
		for _, v := range g.versions {
			ats = append(ats, v.Seq-1, v.Seq, v.Seq+1)
		}
		for _, at := range ats {
			want, wantOK := newestAtMost(g.versions, at)
			got, ok, err := findInBlock(block, g.key, at)
			if err != nil || ok != wantOK {
				t.Fatalf("findInBlock(%q, %d) = ok=%v err=%v, parseGroup says ok=%v", g.key, at, ok, err, wantOK)
			}
			if ok && (got.Seq != want.Seq || got.Tombstone != want.Tombstone ||
				!bytes.Equal(got.Value, want.Value) || !bytes.Equal(got.Meta, want.Meta) ||
				(got.Value == nil) != (want.Value == nil) || (got.Meta == nil) != (want.Meta == nil)) {
				t.Fatalf("findInBlock(%q, %d) = %+v, parseGroup says %+v", g.key, at, got, want)
			}
		}
	}
}

// FuzzSSTableDecode throws arbitrary bytes at the table parser and the
// full read path, and at the in-place block walker directly (a block's
// CRC keeps mutated bytes from ever reaching it through a table). Any
// input may be rejected; none may panic; and what the walker accepts it
// reads as parseGroup does.
func FuzzSSTableDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(buildTableBytes(f, []tableEntry{
		{key: "a", versions: []storage.Version{{Seq: 1, Value: []byte("x")}}},
		{key: "b", versions: []storage.Version{{Seq: 2, Tombstone: true}}},
		{key: "c", versions: []storage.Version{
			{Seq: 3, Value: []byte("y"), Meta: []byte("m")},
			{Seq: 4, Value: nil},
		}},
	}, 64))
	seed := buildTableBytes(f, []tableEntry{
		{key: "longer-key-0001", versions: []storage.Version{{Seq: 9, Value: make([]byte, 300)}}},
	}, 0)
	f.Add(seed)
	f.Add(seed[:len(seed)-10]) // truncated footer
	f.Add(seed[5:])            // shifted offsets
	// A bare data block, for the walker: three groups, one multi-version.
	var block []byte
	for _, e := range []tableEntry{
		{key: "a", versions: []storage.Version{{Seq: 1, Value: []byte("x")}}},
		{key: "longer-key-0001", versions: []storage.Version{
			{Seq: 2, Value: []byte("y"), Meta: []byte{}},
			{Seq: 5, Tombstone: true},
			{Seq: 7, Value: []byte{}},
		}},
		{key: "zzz", versions: []storage.Version{{Seq: 9, Meta: []byte("m")}}},
	} {
		block = binary.AppendUvarint(block, uint64(len(e.key)))
		block = append(block, e.key...)
		block = binary.AppendUvarint(block, uint64(len(e.versions)))
		for _, v := range e.versions {
			block = appendVersion(block, v)
		}
	}
	f.Add(block)
	f.Add(block[:len(block)-3]) // cut inside the last group

	f.Fuzz(func(t *testing.T, data []byte) {
		// The walker on the raw bytes: the skip path over whatever they
		// hold, then agreement with the copying parser.
		for _, key := range []string{"", "a", "longer-key-0001", "m", "zzz", "\xff\xff"} {
			findInBlock(data, key, latest)
			findInBlock(data, key, 4)
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
		tab.get("a", latest)
		tab.get("longer-key-0001", 3)
		tab.get("zzz", latest)
		var scanned []tableEntry
		err = tab.scanRange("", "", func(key string, vs []storage.Version) bool {
			scanned = append(scanned, tableEntry{key: key, versions: vs})
			return true
		})
		if err != nil {
			return
		}
		// An accepted table: a point lookup of every key it scans agrees
		// with the scan (keys in written order; see checkWalkerAgrees).
		for i := 1; i < len(scanned); i++ {
			if scanned[i].key <= scanned[i-1].key {
				return
			}
		}
		for _, e := range scanned {
			want, wantOK := newestAtMost(e.versions, latest)
			got, ok, skipped, err := tab.get(e.key, latest)
			if skipped {
				continue // a bloom section that is not this table's
			}
			if err != nil || ok != wantOK || got.Seq != want.Seq || !bytes.Equal(got.Value, want.Value) {
				t.Fatalf("get(%q) = %+v ok=%v err=%v, scanRange says %+v ok=%v", e.key, got, ok, err, want, wantOK)
			}
		}
	})
}
