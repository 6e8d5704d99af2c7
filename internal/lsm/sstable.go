package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"sort"
	"sync"

	"repro/internal/storage"
)

// SSTable file layout. One immutable sorted run:
//
//	data blocks   groups of (key, version list), sorted by key; blocks
//	              are cut at key-group boundaries near BlockBytes, so a
//	              key's versions never straddle blocks
//	index block   per data block: first key, offset, length, CRC32C
//	bloom block   double-hashed bloom filter over the table's keys
//	footer        fixed 84 bytes: section offsets/lengths, seq bounds,
//	              counts, section CRCs, footer CRC, magic
//
// Version encoding inside a group:
//
//	uvarint seq | flags | [uvarint len | value] | [uvarint len | meta]
//
// flags bit0 = tombstone, bit1 = value present (distinguishes nil from
// empty), bit2 = meta present (the caller's bytes, stored raw).
//
// Every parse below is bounds-checked: a truncated or corrupted file
// yields an error, never a panic — pinned by FuzzSSTableDecode.

const (
	tableMagic    = "ECLSMST1"
	footerLen     = 8*8 + 4 + 4 + 4 + len(tableMagic) // 84
	flagTombstone = 1 << 0
	flagHasValue  = 1 << 1
	flagHasMeta   = 1 << 2
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// tableEntry is one key and its full version history, ascending by Seq
// — the unit a memtable flush or a compaction merge hands the writer.
type tableEntry struct {
	key      string
	versions []storage.Version
}

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
	h1 = storage.KeyHash(key)
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

// ── writer ─────────────────────────────────────────────────────────────

func appendVersion(buf []byte, v storage.Version) []byte {
	buf = binary.AppendUvarint(buf, v.Seq)
	flags := byte(0)
	if v.Tombstone {
		flags |= flagTombstone
	}
	if v.Value != nil {
		flags |= flagHasValue
	}
	if v.Meta != nil {
		flags |= flagHasMeta
	}
	buf = append(buf, flags)
	if v.Value != nil {
		buf = binary.AppendUvarint(buf, uint64(len(v.Value)))
		buf = append(buf, v.Value...)
	}
	if v.Meta != nil {
		buf = binary.AppendUvarint(buf, uint64(len(v.Meta)))
		buf = append(buf, v.Meta...)
	}
	return buf
}

// writeTable writes one SSTable holding entries (sorted by key, each
// version list ascending by Seq) and reopens it through the same parse
// path every reader uses.
func writeTable(path string, entries []tableEntry, blockBytes, bitsPerKey int) (*table, error) {
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
		minSeq   = ^uint64(0)
		maxSeq   uint64
		versions uint64
	)
	bloom := buildBloom(len(entries), bitsPerKey)
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
	for _, e := range entries {
		if len(blockBuf) == 0 {
			firstKey = e.key
		}
		bloom.add(e.key)
		blockBuf = binary.AppendUvarint(blockBuf, uint64(len(e.key)))
		blockBuf = append(blockBuf, e.key...)
		blockBuf = binary.AppendUvarint(blockBuf, uint64(len(e.versions)))
		for _, v := range e.versions {
			blockBuf = appendVersion(blockBuf, v)
			if v.Seq < minSeq {
				minSeq = v.Seq
			}
			if v.Seq > maxSeq {
				maxSeq = v.Seq
			}
			versions++
		}
		if len(blockBuf) >= blockBytes {
			flushBlock()
		}
	}
	flushBlock()
	if versions == 0 {
		minSeq = 0
	}

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
	le.PutUint64(footer[32:], minSeq)
	le.PutUint64(footer[40:], maxSeq)
	le.PutUint64(footer[48:], uint64(len(entries)))
	le.PutUint64(footer[56:], versions)
	le.PutUint32(footer[64:], crc32.Checksum(countedIndex, castagnoli))
	le.PutUint32(footer[68:], crc32.Checksum(bloomBuf, castagnoli))
	le.PutUint32(footer[72:], crc32.Checksum(footer[:72], castagnoli))
	copy(footer[76:], tableMagic)
	file = append(file, footer[:]...)

	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(file); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return openTable(path)
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
	f        *os.File
	path     string
	size     int64
	blocks   []blockMeta
	bloom    bloomFilter
	minSeq   uint64
	maxSeq   uint64
	keys     int
	versions int
	id       uint64   // the engine's number for this run, as in its file name
	io       *tableIO // engine read counters; nil until attached
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
	if string(footer[76:]) != tableMagic {
		return nil, fmt.Errorf("lsm: %s: bad magic", path)
	}
	le := binary.LittleEndian
	if le.Uint32(footer[72:]) != crc32.Checksum(footer[:72], castagnoli) {
		return nil, fmt.Errorf("lsm: %s: footer CRC mismatch", path)
	}
	t := &table{
		f:        f,
		path:     path,
		size:     size,
		minSeq:   le.Uint64(footer[32:]),
		maxSeq:   le.Uint64(footer[40:]),
		keys:     int(le.Uint64(footer[48:])),
		versions: int(le.Uint64(footer[56:])),
	}
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
	indexBuf, err := readSection(indexOff, indexLen, le.Uint32(footer[64:]), "index")
	if err != nil {
		return nil, err
	}
	bloomBuf, err := readSection(bloomOff, bloomLen, le.Uint32(footer[68:]), "bloom")
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

// parseGroup decodes one (key, versions) group at the cursor.
func parseGroup(c *cursor) (string, []storage.Version, error) {
	keyLen := c.uvarint()
	key := string(c.take(keyLen))
	n := c.uvarint()
	if c.bad || n > uint64(len(c.b)-c.off)+1 {
		return "", nil, fmt.Errorf("lsm: malformed group header")
	}
	vs := make([]storage.Version, 0, n)
	for i := uint64(0); i < n; i++ {
		seq := c.uvarint()
		flagBytes := c.take(1)
		if c.bad {
			return "", nil, fmt.Errorf("lsm: truncated version")
		}
		flags := flagBytes[0]
		v := storage.Version{Seq: seq, Tombstone: flags&flagTombstone != 0}
		if flags&flagHasValue != 0 {
			val := c.take(c.uvarint())
			if c.bad {
				return "", nil, fmt.Errorf("lsm: truncated value")
			}
			v.Value = bytes.Clone(val) // non-nil: an empty value stays empty
		}
		if flags&flagHasMeta != 0 {
			mb := c.take(c.uvarint())
			if c.bad {
				return "", nil, fmt.Errorf("lsm: truncated meta")
			}
			v.Meta = bytes.Clone(mb)
		}
		if i > 0 && seq <= vs[len(vs)-1].Seq {
			return "", nil, fmt.Errorf("lsm: version seqs out of order for %q", key)
		}
		vs = append(vs, v)
	}
	return key, vs, nil
}

// findInBlock walks the key groups of one data block in place and
// returns the newest version of key with Seq <= at. It compares key
// bytes where they lie and steps over every other group by its lengths,
// so nothing is materialized on the way; the walk stops at the first
// greater key. The result's Value and Meta alias block: the caller
// copies them before the block's buffer is released.
func findInBlock(block []byte, key string, at uint64) (v storage.Version, ok bool, err error) {
	c := cursor{b: block}
	for !c.done() {
		k := c.take(c.uvarint())
		n := c.uvarint()
		if c.bad || n > uint64(len(c.b)-c.off)+1 {
			return storage.Version{}, false, fmt.Errorf("lsm: malformed group header")
		}
		if string(k) > key {
			break
		}
		match := string(k) == key
		var prev uint64
		for i := uint64(0); i < n; i++ {
			seq := c.uvarint()
			flagBytes := c.take(1)
			if c.bad {
				return storage.Version{}, false, fmt.Errorf("lsm: truncated version")
			}
			flags := flagBytes[0]
			var val, meta []byte
			if flags&flagHasValue != 0 {
				val = c.take(c.uvarint())
			}
			if flags&flagHasMeta != 0 {
				meta = c.take(c.uvarint())
			}
			if c.bad {
				return storage.Version{}, false, fmt.Errorf("lsm: truncated value or meta")
			}
			if !match {
				continue
			}
			if i > 0 && seq <= prev {
				return storage.Version{}, false, fmt.Errorf("lsm: version seqs out of order for %q", key)
			}
			prev = seq
			if seq <= at {
				v, ok = storage.Version{Seq: seq, Tombstone: flags&flagTombstone != 0, Value: val, Meta: meta}, true
			}
		}
		if match {
			return v, ok, nil
		}
	}
	return storage.Version{}, false, nil
}

// lookup returns the newest version of key with Seq <= at held by this
// table, without copying it: its Value and Meta alias the block buffer
// bp, which the caller releases once it is done with them. skipped
// reports that the bloom filter excluded the key without touching any
// block. bp is nil unless ok.
func (t *table) lookup(key string, at uint64) (v storage.Version, bp *[]byte, ok, skipped bool, err error) {
	if !t.bloom.mayContain(key) {
		return storage.Version{}, nil, false, true, nil
	}
	i := t.blockFor(key)
	if i < 0 {
		return storage.Version{}, nil, false, false, nil
	}
	bp, err = t.readBlock(i)
	if err != nil {
		return storage.Version{}, nil, false, false, err
	}
	v, ok, err = findInBlock(*bp, key, at)
	if !ok || err != nil {
		releaseBlock(bp)
		return storage.Version{}, nil, false, false, err
	}
	return v, bp, true, false, nil
}

// ownVersion copies v's Value and Meta out of the block they alias: the
// one copy a read that keeps a version makes. What is empty stays empty
// and what is nil stays nil, as parseGroup has it.
func ownVersion(v storage.Version) storage.Version {
	v.Value = bytes.Clone(v.Value)
	v.Meta = bytes.Clone(v.Meta)
	return v
}

// scanRange calls fn for every key group with lo <= key < hi ("" =
// open) in key order; fn returning false stops the scan.
func (t *table) scanRange(lo, hi string, fn func(key string, vs []storage.Version) bool) error {
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
// scan goes on to the next block. What fn receives is parseGroup's copy,
// so it stays valid after the block's buffer is released here.
func (t *table) scanBlock(i int, lo, hi string, fn func(key string, vs []storage.Version) bool) (more bool, err error) {
	bp, err := t.readBlock(i)
	if err != nil {
		return false, err
	}
	defer releaseBlock(bp)
	c := &cursor{b: *bp}
	for !c.done() {
		key, vs, err := parseGroup(c)
		if err != nil {
			return false, err
		}
		if hi != "" && key >= hi {
			return false, nil
		}
		if key < lo {
			continue
		}
		if !fn(key, vs) {
			return false, nil
		}
	}
	return true, nil
}
