package lsm

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/storage"
)

// Tests of the in-place point lookup (findInBlock, table.get) and of the
// block buffer pool under it.

// get is lookup plus the copy that lets a value outlive its block, as
// the engine's own reads do.
func (t *table) get(key string) (v []byte, ok, skipped bool, err error) {
	v, bp, ok, skipped, err := t.lookup(key)
	if !ok {
		return nil, false, skipped, err
	}
	defer releaseBlock(bp)
	return bytes.Clone(v), true, false, nil
}

// valueFor is the one value key ever holds in these tests, so a read
// that returns anything else has read another key's bytes.
func valueFor(key string, size int) []byte {
	return bytes.Repeat([]byte(key), size/len(key)+1)[:size]
}

// TestTableGetByPosition looks up keys at every position a block walk
// distinguishes: the first, a middle and the last group of a block, and
// absent keys that sort between two groups, before the first block and
// after the last.
func TestTableGetByPosition(t *testing.T) {
	var pairs []storage.Pair
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("key-%03d", i*2) // even numbers: odd ones sort between
		pairs = append(pairs, storage.Pair{Key: key, Value: valueFor(key, 40)})
	}
	tab, err := writeTable(filepath.Join(t.TempDir(), "t.sst"), pairs, 256, 10)
	if err != nil {
		t.Fatalf("writeTable: %v", err)
	}
	defer tab.close()
	if len(tab.blocks) < 3 {
		t.Fatalf("want at least 3 blocks, got %d", len(tab.blocks))
	}
	// What each block holds, by the copying parser.
	blocks := make([][]storage.Pair, len(tab.blocks))
	for i := range tab.blocks {
		bp, err := tab.readBlock(i)
		if err != nil {
			t.Fatalf("readBlock(%d): %v", i, err)
		}
		if blocks[i], err = parseBlock(*bp); err != nil {
			t.Fatalf("parseBlock(%d): %v", i, err)
		}
		releaseBlock(bp)
		if len(blocks[i]) < 3 {
			t.Fatalf("block %d holds %d groups, want at least 3", i, len(blocks[i]))
		}
	}
	mid := blocks[1]
	lastBlock := blocks[len(blocks)-1]
	between := func(a string) string { return a[:len(a)-1] + string(a[len(a)-1]+1) } // even -> the odd key after it

	cases := []struct {
		name, key string
		found     bool
	}{
		{"first group of the first block", blocks[0][0].Key, true},
		{"first group of a middle block", mid[0].Key, true},
		{"middle group of a block", mid[len(mid)/2].Key, true},
		{"last group of a block", mid[len(mid)-1].Key, true},
		{"last group of the last block", lastBlock[len(lastBlock)-1].Key, true},
		{"absent, between two groups", between(mid[0].Key), false},
		{"absent, between two blocks", between(mid[len(mid)-1].Key), false},
		{"absent, before the first block", "key-", false},
		{"absent, after the last block", "key-999", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The bloom filter may exclude an absent key before any block
			// is read; the walker itself is asked too.
			v, ok, _, err := tab.get(tc.key)
			if err != nil || ok != tc.found {
				t.Fatalf("get(%q) = ok=%v err=%v, want ok=%v", tc.key, ok, err, tc.found)
			}
			if ok && !bytes.Equal(v, valueFor(tc.key, 40)) {
				t.Fatalf("get(%q) = %q", tc.key, v)
			}
			if i := tab.blockFor(tc.key); i >= 0 {
				bp, err := tab.readBlock(i)
				if err != nil {
					t.Fatal(err)
				}
				defer releaseBlock(bp)
				if _, ok, err := findInBlock(*bp, tc.key); err != nil || ok != tc.found {
					t.Fatalf("findInBlock(%q) = ok=%v err=%v, want ok=%v", tc.key, ok, err, tc.found)
				}
			} else if tc.found {
				t.Fatalf("blockFor(%q) = %d", tc.key, i)
			}
		})
	}
	// And every key through both readers.
	for i := range tab.blocks {
		bp, err := tab.readBlock(i)
		if err != nil {
			t.Fatal(err)
		}
		checkWalkerAgrees(t, *bp)
		releaseBlock(bp)
	}
}

// TestCorruptBlockRefusedThroughReusedBuffer reads block A, flips a bit
// of block B on disk and reads B: the CRC is checked on every read, so a
// buffer that came back from the pool holding A's verified bytes does
// not vouch for B's.
func TestCorruptBlockRefusedThroughReusedBuffer(t *testing.T) {
	e := openTest(t, Options{BlockBytes: 256})
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("k-%02d", i)
		e.Put(key, valueFor(key, 40), nil)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	tab := e.tables[0]
	if len(tab.blocks) < 2 {
		t.Fatalf("want at least 2 blocks, got %d", len(tab.blocks))
	}
	keyA, keyB := tab.blocks[0].firstKey, tab.blocks[1].firstKey
	if v, ok := e.Get(keyA); !ok || !bytes.Equal(v, valueFor(keyA, 40)) {
		t.Fatalf("Get(%q) from block A = %q ok=%v", keyA, v, ok)
	}
	if v, ok := e.Get(keyB); !ok || !bytes.Equal(v, valueFor(keyB, 40)) {
		t.Fatalf("Get(%q) from block B before the flip = %q ok=%v", keyB, v, ok)
	}
	if v, ok := e.Get(keyA); !ok || !bytes.Equal(v, valueFor(keyA, 40)) {
		t.Fatalf("Get(%q) from block A = %q ok=%v", keyA, v, ok)
	}

	f, err := os.OpenFile(tab.path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	at := int64(tab.blocks[1].off + tab.blocks[1].len/2)
	var b [1]byte
	if _, err := f.ReadAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := f.WriteAt(b[:], at); err != nil {
		t.Fatal(err)
	}

	before := e.Stats().ReadErrors
	if v, ok := e.Get(keyB); ok {
		t.Fatalf("Get(%q) from the corrupted block returned %q", keyB, v)
	}
	if got := e.Stats().ReadErrors - before; got != 1 {
		t.Fatalf("ReadErrors grew by %d, want 1", got)
	}
	if pairs := e.Scan(keyB, "", 1); len(pairs) != 0 {
		t.Fatalf("Scan from the corrupted block returned %v", pairs)
	}
	if got := e.Stats().ReadErrors - before; got != 2 {
		t.Fatalf("ReadErrors after the scan grew by %d, want 2", got)
	}
	if v, ok := e.Get(keyA); !ok || !bytes.Equal(v, valueFor(keyA, 40)) {
		t.Fatalf("Get(%q) from the intact block after the refusal = %q ok=%v", keyA, v, ok)
	}
}

// TestGetAllocBudget pins what an SSTable-resident Get costs, beside
// quorum.TestReplicaPathAllocBudget: the copy of the one value it
// returns, wherever the key sits in its block. A lookup that copies the
// groups it walks past, or reads into a fresh block buffer, fails it.
func TestGetAllocBudget(t *testing.T) {
	const valueSize = 4096
	e := openTest(t, Options{})
	var keys []string
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("k%08d", i)
		keys = append(keys, key)
		e.Put(key, valueFor(key, valueSize), nil)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	tab := e.tables[0]
	// One block's first, middle and last key.
	var block []string
	for _, key := range keys {
		if tab.blockFor(key) == 1 {
			block = append(block, key)
		}
	}
	if len(block) < 3 {
		t.Fatalf("block 1 holds %d keys, want at least 3", len(block))
	}
	for _, key := range []string{block[0], block[len(block)/2], block[len(block)-1]} {
		var got []byte
		var ok bool
		objects := testing.AllocsPerRun(100, func() { got, ok = e.Get(key) })
		if !ok || !bytes.Equal(got, valueFor(key, valueSize)) {
			t.Fatalf("Get(%q) ok=%v, wrong value", key, ok)
		}
		const runs = 200
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			got, _ = e.Get(key)
		}
		runtime.ReadMemStats(&m1)
		perGet := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
		t.Logf("Get(%q): %v objects, %.0f B", key, objects, perGet)
		if objects > 4 {
			t.Errorf("Get(%q): %v objects per lookup, budget 4", key, objects)
		}
		if perGet > valueSize+512 && !raceEnabled {
			t.Errorf("Get(%q): %.0f B per lookup, budget %d", key, perGet, valueSize+512)
		}
	}
}

// TestReturnedValuesSurviveLaterReads holds values handed out by every
// read entry point and then reads ten thousand other keys through the
// same pooled buffers: nothing returned may alias one.
func TestReturnedValuesSurviveLaterReads(t *testing.T) {
	const n, valueSize = 1200, 200
	e := openTest(t, Options{MemtableBytes: 32 << 10, BlockBytes: 1 << 10, MaxTablesPerTier: 100})
	key := func(i int) string { return fmt.Sprintf("k%05d", i) }
	for i := 0; i < n; i++ {
		e.Put(key(i), valueFor(key(i), valueSize), nil)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}

	hold := make(map[string][]byte)
	for i := 0; i < 1000; i += 2 {
		for j, read := range []func(string) ([]byte, bool){
			e.Get,
			func(k string) ([]byte, bool) {
				p := e.Scan(k, "", 1)
				if len(p) != 1 || p[0].Key != k {
					return nil, false
				}
				return p[0].Value, true
			},
		} {
			k := key(i + j)
			v, ok := read(k)
			if !ok {
				t.Fatalf("read %d of %q found nothing", j, k)
			}
			hold[k] = v
		}
	}
	if len(hold) != 1000 {
		t.Fatalf("holding %d values, want 1000", len(hold))
	}
	for i := 0; i < 10000; i++ {
		k := key(1000 + i%200)
		if v, ok := e.Get(k); !ok || !bytes.Equal(v, valueFor(k, valueSize)) {
			t.Fatalf("Get(%q) ok=%v, wrong value", k, ok)
		}
	}
	for k, v := range hold {
		if !bytes.Equal(v, valueFor(k, valueSize)) {
			t.Fatalf("the value held for %q changed under later reads", k)
		}
	}
}

// TestViewLendsWithoutCopying pins View's half of the contract: what fn
// decodes from the lent bytes (as a digest answer decodes clocks) stays
// intact across ten thousand later reads through the same pooled
// buffers, and lending an SSTable-resident 4 KiB value copies nothing.
func TestViewLendsWithoutCopying(t *testing.T) {
	const n, valueSize = 600, 4096
	e := openTest(t, Options{MemtableBytes: 256 << 10, MaxTablesPerTier: 100})
	key := func(i int) string { return fmt.Sprintf("k%05d", i) }
	for i := 0; i < n; i++ {
		e.Put(key(i), valueFor(key(i), valueSize), nil)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}

	// A digest: a few bytes decoded out of the lent value into memory fn
	// owns, as wire.Reader.ID decodes a dot's node name.
	digest := func(k string) (d string, ok bool) {
		ok = e.View(k, func(v []byte) {
			if !bytes.Equal(v, valueFor(k, valueSize)) {
				t.Errorf("View(%q) lent another key's bytes", k)
			}
			d = string(v[:16])
		})
		return d, ok
	}
	held := make(map[string]string)
	for i := 0; i < n/2; i++ {
		d, ok := digest(key(i))
		if !ok {
			t.Fatalf("View(%q) found nothing", key(i))
		}
		held[key(i)] = d
	}
	for i := 0; i < 10000; i++ {
		k := key(n/2 + i%(n/2))
		if i%2 == 0 {
			digest(k)
		} else if _, ok := e.Get(k); !ok {
			t.Fatalf("Get(%q) found nothing", k)
		}
	}
	for k, d := range held {
		if d != string(valueFor(k, valueSize)[:16]) {
			t.Fatalf("the digest decoded from %q changed under later reads: %q", k, d)
		}
	}

	k := key(n - 1)
	var sum int
	objects := testing.AllocsPerRun(100, func() {
		e.View(k, func(v []byte) { sum += len(v) })
	})
	if sum != 101*valueSize {
		t.Fatalf("View lent %d bytes over 101 calls, want %d", sum, 101*valueSize)
	}
	if objects > 1 && !raceEnabled {
		t.Errorf("View(%q): %v objects per lookup, budget 1", k, objects)
	}
}

// TestBlockPoolUnderConcurrentReadsAndCompaction shares the pool between
// point lookups, scans and the contiguous merges a writer's flushes
// trigger (run it under -race). Every key only ever holds valueFor(key), so a read that
// returns anything else came out of a buffer someone else was filling.
func TestBlockPoolUnderConcurrentReadsAndCompaction(t *testing.T) {
	const keys, valueSize = 300, 120
	e := openTest(t, Options{MemtableBytes: 8 << 10, BlockBytes: 512, MaxTablesPerTier: 3})
	key := func(i int) string { return fmt.Sprintf("k%04d", i) }
	for i := 0; i < keys; i++ {
		e.Put(key(i), valueFor(key(i), valueSize), nil)
	}
	base := e.Stats().Compactions

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i += 7 {
				select {
				case <-stop:
					return
				default:
				}
				k := key(i % keys)
				if v, ok := e.Get(k); !ok || !bytes.Equal(v, valueFor(k, valueSize)) {
					t.Errorf("Get(%q) ok=%v, wrong value", k, ok)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i += 13 {
			select {
			case <-stop:
				return
			default:
			}
			for _, p := range e.Scan(key(i%keys), "", 20) {
				if !bytes.Equal(p.Value, valueFor(p.Key, valueSize)) {
					t.Errorf("Scan returned a wrong value for %q", p.Key)
					return
				}
			}
		}
	}()
	// The writer rewrites every key with the same value until its flushes
	// have driven several merges through the pool.
	for round := 0; e.Stats().Compactions < base+4; round++ {
		if round == 50 {
			t.Fatal("no compaction after 50 rounds of rewrites")
		}
		for i := 0; i < keys; i++ {
			e.Put(key(i), valueFor(key(i), valueSize), nil)
		}
	}
	close(stop)
	wg.Wait()
}
