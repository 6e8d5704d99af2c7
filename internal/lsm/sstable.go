package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"sort"
	"sync"

	"repro/internal/ring"
	"repro/internal/storage"
)

// SSTable file layout. One immutable sorted run:
//
//	data blocks   groups of (key, value), sorted by key; blocks are cut
//	              at group boundaries near BlockBytes
//	index block   per data block: first key, offset, length, CRC32C
//	bloom block   double-hashed bloom filter over the table's keys
//	footer        fixed 60 bytes: section offsets/lengths, key count,
//	              section CRCs, footer CRC, magic
//
// A group is one key and its value:
//
//	uvarint keylen | key | uvarint vallen | value
//
// A table holds no sequence numbers: which of two tables is newer is
// their position in the manifest's list.
//
// Every parse below is bounds-checked: a truncated or corrupted file
// yields an error, never a panic — pinned by FuzzSSTableDecode.

const (
	tableMagic = "ECLSMST2"
	footerLen  = 5*8 + 4 + 4 + 4 + len(tableMagic) // 60
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ── bloom filter ───────────────────────────────────────────────────────

type bloomFilter struct {
	k    int
	bits []byte
	n    uint64 // bit count
}

func buildBloom(keys int, bitsPerKey int) bloomFilter {
	if keys < 1 {
		keys = 1
	}
	n := uint64(keys * bitsPerKey)
	if n < 64 {
		n = 64
	}
	k := bitsPerKey * 69 / 100 // ln 2 ≈ 0.69 hashes per bit-per-key
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return bloomFilter{k: k, bits: make([]byte, (n+7)/8), n: n}
}

func bloomHashes(key string) (h1, h2 uint64) {
	h1 = ring.KeyHash(key)
	h2 = bits.RotateLeft64(h1, 31) | 1
	return h1, h2
}

func (f *bloomFilter) add(key string) {
	h1, h2 := bloomHashes(key)
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % f.n
		f.bits[bit/8] |= 1 << (bit % 8)
	}
}

func (f *bloomFilter) mayContain(key string) bool {
	if f.n == 0 {
		return true
	}
	h1, h2 := bloomHashes(key)
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % f.n
		if f.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

// ── bounds-checked cursor ──────────────────────────────────────────────

type cursor struct {
	b   []byte
	off int
	bad bool
}

func (c *cursor) fail() { c.bad = true }

func (c *cursor) uvarint() uint64 {
	if c.bad {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.fail()
		return 0
	}
	c.off += n
	return v
}

// take returns the next n bytes, aliasing the buffer.
func (c *cursor) take(n uint64) []byte {
	if c.bad || n > uint64(len(c.b)-c.off) {
		c.fail()
		return nil
	}
	out := c.b[c.off : c.off+int(n)]
	c.off += int(n)
	return out
}

func (c *cursor) done() bool { return c.bad || c.off >= len(c.b) }

var errTruncatedGroup = errors.New("lsm: truncated group")

// group decodes the (key, value) group at the cursor. Both alias the
// buffer.
func (c *cursor) group() (key, val []byte, err error) {
	key = c.take(c.uvarint())
	val = c.take(c.uvarint())
	if c.bad {
		return nil, nil, errTruncatedGroup
	}
	return key, val, nil
}

// ── writer ─────────────────────────────────────────────────────────────

func appendGroup(buf []byte, p storage.Pair) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(p.Key)))
	buf = append(buf, p.Key...)
	buf = binary.AppendUvarint(buf, uint64(len(p.Value)))
	return append(buf, p.Value...)
}

// writeTable writes one SSTable holding pairs (sorted by key) and reopens
// it through the same parse path every reader uses. A file it fails to
// finish is removed.
func writeTable(path string, pairs []storage.Pair, blockBytes, bitsPerKey int) (*table, error) {
	if blockBytes <= 0 {
		blockBytes = 16 << 10
	}
	if bitsPerKey <= 0 {
		bitsPerKey = 10
	}
	var (
		data     []byte
		index    []byte
		nBlocks  uint64
		blockBuf []byte
		firstKey string
	)
	bloom := buildBloom(len(pairs), bitsPerKey)
	flushBlock := func() {
		if len(blockBuf) == 0 {
			return
		}
		index = binary.AppendUvarint(index, uint64(len(firstKey)))
		index = append(index, firstKey...)
		index = binary.AppendUvarint(index, uint64(len(data)))
		index = binary.AppendUvarint(index, uint64(len(blockBuf)))
		index = binary.AppendUvarint(index, uint64(crc32.Checksum(blockBuf, castagnoli)))
		data = append(data, blockBuf...)
		nBlocks++
		blockBuf = blockBuf[:0]
	}
	for _, p := range pairs {
		if len(blockBuf) == 0 {
			firstKey = p.Key
		}
		bloom.add(p.Key)
		blockBuf = appendGroup(blockBuf, p)
		if len(blockBuf) >= blockBytes {
			flushBlock()
		}
	}
	flushBlock()

	var bloomBuf []byte
	bloomBuf = binary.AppendUvarint(bloomBuf, uint64(bloom.k))
	bloomBuf = binary.AppendUvarint(bloomBuf, bloom.n)
	bloomBuf = append(bloomBuf, bloom.bits...)

	countedIndex := binary.AppendUvarint(nil, nBlocks)
	countedIndex = append(countedIndex, index...)

	file := make([]byte, 0, len(data)+len(countedIndex)+len(bloomBuf)+footerLen)
	file = append(file, data...)
	indexOff := uint64(len(file))
	file = append(file, countedIndex...)
	bloomOff := uint64(len(file))
	file = append(file, bloomBuf...)

	var footer [footerLen]byte
	le := binary.LittleEndian
	le.PutUint64(footer[0:], indexOff)
	le.PutUint64(footer[8:], uint64(len(countedIndex)))
	le.PutUint64(footer[16:], bloomOff)
	le.PutUint64(footer[24:], uint64(len(bloomBuf)))
	le.PutUint64(footer[32:], uint64(len(pairs)))
	le.PutUint32(footer[40:], crc32.Checksum(countedIndex, castagnoli))
	le.PutUint32(footer[44:], crc32.Checksum(bloomBuf, castagnoli))
	le.PutUint32(footer[48:], crc32.Checksum(footer[:48], castagnoli))
	copy(footer[52:], tableMagic)
	file = append(file, footer[:]...)

	if err := writeFile(path, file); err != nil {
		os.Remove(path)
		return nil, err
	}
	return openTable(path)
}

// writeFile writes b to path and syncs it.
func writeFile(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(b)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ── reader ─────────────────────────────────────────────────────────────

type blockMeta struct {
	firstKey string
	off      uint64
	len      uint64
	crc      uint32
}

// table is an open immutable SSTable. The file handle stays open for
// the table's lifetime: on Linux an unlinked file remains readable
// through it, which is what lets compaction swap tables out from under
// concurrent readers without coordination.
type table struct {
	f      *os.File
	path   string
	size   int64
	blocks []blockMeta
	bloom  bloomFilter
	keys   int
	id     uint64   // the engine's number for this run, as in its file name
	io     *tableIO // engine read counters; nil until attached
}

// openTable opens and validates path. Corruption anywhere in the
// footer, index, or bloom sections fails here; data block corruption
// fails at read time via the per-block CRC.
func openTable(path string) (*table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	t, err := parseTable(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return t, nil
}

func parseTable(f *os.File, path string) (*table, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < int64(footerLen) {
		return nil, fmt.Errorf("lsm: %s: too short for a footer (%d bytes)", path, size)
	}
	var footer [footerLen]byte
	if _, err := f.ReadAt(footer[:], size-int64(footerLen)); err != nil {
		return nil, err
	}
	if string(footer[52:]) != tableMagic {
		return nil, fmt.Errorf("lsm: %s: bad magic", path)
	}
	le := binary.LittleEndian
	if le.Uint32(footer[48:]) != crc32.Checksum(footer[:48], castagnoli) {
		return nil, fmt.Errorf("lsm: %s: footer CRC mismatch", path)
	}
	t := &table{f: f, path: path, size: size, keys: int(le.Uint64(footer[32:]))}
	indexOff, indexLen := le.Uint64(footer[0:]), le.Uint64(footer[8:])
	bloomOff, bloomLen := le.Uint64(footer[16:]), le.Uint64(footer[24:])
	body := uint64(size - int64(footerLen))
	if indexOff+indexLen > body || bloomOff+bloomLen > body ||
		indexOff+indexLen > bloomOff+bloomLen { // sections may not wrap
		return nil, fmt.Errorf("lsm: %s: section bounds exceed file", path)
	}
	readSection := func(off, n uint64, wantCRC uint32, what string) ([]byte, error) {
		buf := make([]byte, n)
		if _, err := f.ReadAt(buf, int64(off)); err != nil {
			return nil, err
		}
		if crc32.Checksum(buf, castagnoli) != wantCRC {
			return nil, fmt.Errorf("lsm: %s: %s CRC mismatch", path, what)
		}
		return buf, nil
	}
	indexBuf, err := readSection(indexOff, indexLen, le.Uint32(footer[40:]), "index")
	if err != nil {
		return nil, err
	}
	bloomBuf, err := readSection(bloomOff, bloomLen, le.Uint32(footer[44:]), "bloom")
	if err != nil {
		return nil, err
	}

	c := &cursor{b: indexBuf}
	nBlocks := c.uvarint()
	if nBlocks > uint64(len(indexBuf)) {
		return nil, fmt.Errorf("lsm: %s: index claims %d blocks in %d bytes", path, nBlocks, len(indexBuf))
	}
	blocks := make([]blockMeta, 0, nBlocks)
	prevKey := ""
	for i := uint64(0); i < nBlocks; i++ {
		keyLen := c.uvarint()
		key := string(c.take(keyLen))
		off := c.uvarint()
		blen := c.uvarint()
		crc := c.uvarint()
		if c.bad {
			return nil, fmt.Errorf("lsm: %s: truncated index entry %d", path, i)
		}
		if off+blen > indexOff || crc > 0xFFFFFFFF {
			return nil, fmt.Errorf("lsm: %s: index entry %d out of bounds", path, i)
		}
		if i > 0 && key <= prevKey {
			return nil, fmt.Errorf("lsm: %s: index keys out of order at entry %d", path, i)
		}
		prevKey = key
		blocks = append(blocks, blockMeta{firstKey: key, off: off, len: blen, crc: uint32(crc)})
	}
	t.blocks = blocks

	c = &cursor{b: bloomBuf}
	k := c.uvarint()
	nBits := c.uvarint()
	bitsBuf := c.take((nBits + 7) / 8)
	if c.bad || k == 0 || k > 64 {
		return nil, fmt.Errorf("lsm: %s: malformed bloom section", path)
	}
	t.bloom = bloomFilter{k: int(k), bits: bitsBuf, n: nBits}
	return t, nil
}

func (t *table) close() error { return t.f.Close() }

// blockFor returns the index of the last block whose first key is
// <= key, or -1 if key sorts before every block.
func (t *table) blockFor(key string) int {
	i := sort.Search(len(t.blocks), func(i int) bool { return t.blocks[i].firstKey > key })
	return i - 1
}

// blockPool recycles data-block buffers across reads: every point lookup
// and scan step reads one whole block, and what a caller keeps of it is
// copied out (or, through Engine.View, read in place) before the buffer
// returns here, so nothing that outlives a read ever aliases a pooled
// buffer. It is shared by the lock-free replica-read path, scans and the
// compactor.
var blockPool sync.Pool // of *[]byte

// readBlock reads data block i into a pooled buffer and verifies its CRC,
// on every read: a recycled buffer holds another block's bytes until
// ReadAt overwrites them all. The caller hands the buffer back with
// releaseBlock once it has copied out what it keeps.
func (t *table) readBlock(i int) (*[]byte, error) {
	if t.io != nil {
		t.io.blockReads.Add(1)
	}
	bm := t.blocks[i]
	bp, _ := blockPool.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	if uint64(cap(*bp)) < bm.len {
		*bp = make([]byte, bm.len)
	}
	*bp = (*bp)[:bm.len]
	if _, err := t.f.ReadAt(*bp, int64(bm.off)); err != nil {
		releaseBlock(bp)
		return nil, err
	}
	if crc32.Checksum(*bp, castagnoli) != bm.crc {
		releaseBlock(bp)
		return nil, fmt.Errorf("lsm: %s: block %d CRC mismatch", t.path, i)
	}
	return bp, nil
}

func releaseBlock(bp *[]byte) { blockPool.Put(bp) }

// findInBlock walks the groups of one data block in place and returns
// key's value. It compares key bytes where they lie and steps over every
// other group by its lengths, so nothing is materialized on the way; the
// walk stops at the first greater key. The value aliases block: the
// caller copies it before the block's buffer is released.
func findInBlock(block []byte, key string) (val []byte, ok bool, err error) {
	c := cursor{b: block}
	for !c.done() {
		k, v, err := c.group()
		if err != nil {
			return nil, false, err
		}
		if string(k) == key {
			return v, true, nil
		}
		if string(k) > key {
			break
		}
	}
	return nil, false, nil
}

// lookup returns key's value in this table without copying it: it
// aliases the block buffer bp, which the caller releases once it is done
// with it. skipped reports that the bloom filter excluded the key without
// touching any block. bp is nil unless ok.
func (t *table) lookup(key string) (val []byte, bp *[]byte, ok, skipped bool, err error) {
	if !t.bloom.mayContain(key) {
		return nil, nil, false, true, nil
	}
	i := t.blockFor(key)
	if i < 0 {
		return nil, nil, false, false, nil
	}
	bp, err = t.readBlock(i)
	if err != nil {
		return nil, nil, false, false, err
	}
	val, ok, err = findInBlock(*bp, key)
	if !ok || err != nil {
		releaseBlock(bp)
		return nil, nil, false, false, err
	}
	return val, bp, true, false, nil
}

// scanRange calls fn for every group with lo <= key < hi ("" = open) in
// key order; fn returning false stops the scan. The value fn receives is
// a copy, so it stays valid after the block's buffer is released.
func (t *table) scanRange(lo, hi string, fn func(key string, val []byte) bool) error {
	start := 0
	if lo != "" {
		if start = t.blockFor(lo); start < 0 {
			start = 0
		}
	}
	for i := start; i < len(t.blocks); i++ {
		if hi != "" && t.blocks[i].firstKey >= hi {
			return nil
		}
		more, err := t.scanBlock(i, lo, hi, fn)
		if err != nil || !more {
			return err
		}
	}
	return nil
}

// scanBlock is scanRange's step over block i; more reports whether the
// scan goes on to the next block.
func (t *table) scanBlock(i int, lo, hi string, fn func(key string, val []byte) bool) (more bool, err error) {
	bp, err := t.readBlock(i)
	if err != nil {
		return false, err
	}
	defer releaseBlock(bp)
	c := &cursor{b: *bp}
	for !c.done() {
		k, val, err := c.group()
		if err != nil {
			return false, err
		}
		key := string(k)
		if hi != "" && key >= hi {
			return false, nil
		}
		if key < lo {
			continue
		}
		if !fn(key, bytes.Clone(val)) {
			return false, nil
		}
	}
	return true, nil
}
