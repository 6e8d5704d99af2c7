// Package wire holds the append/read primitives the hand-rolled binary
// wire codec is built from. Every protocol package encodes its message
// types and its durable state with these helpers, not with reflection: an
// encoder is a chain of Append* calls growing one []byte, a decoder is
// a Reader consuming the same bytes with sticky-error reads, so the
// per-message hot path is straight-line code with no allocation beyond
// the output buffer (and, on decode, the strings Go forces us to copy).
//
// Layout conventions, shared by every codec in the repository:
//
//   - Integers are unsigned varints (zig-zag for signed), except dense
//     counter slices which are fixed 8-byte little-endian so they can
//     be encoded and decoded with a single bounds check each — the
//     clocks are flat []uint64 precisely to make this cheap.
//   - Collections (byte slices, string maps, entry lists) carry a
//     uvarint length header of n+1, with 0 meaning nil, so nil and
//     empty both survive a round trip (pinned by the round-trip tests).
//   - Strings are copied out of the buffer, except identifiers read with
//     ID (node, client and zone names), which are interned: one shared
//     string per name, no allocation once the name has been seen.
//   - Decoded byte slices alias the Reader's buffer — zero-copy. The
//     transport hands each inbound frame its own buffer and messages
//     are immutable once sent, so aliasing is safe; a decoder that
//     needs to retain bytes past the frame's lifetime must copy.
//
// Reader is sticky-error: after the first malformed field every read
// returns a zero value and Err() reports the failure, so decoders are
// written without per-field error checks and cannot panic or
// over-allocate on hostile input (lengths are validated against the
// bytes actually remaining before any allocation).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/clock"
)

// ErrMalformed is the sticky Reader error: a field's bytes were absent,
// truncated, or inconsistent with the declared length.
var ErrMalformed = errors.New("wire: malformed message")

// ErrFormatTooOld reports durable state in a format this version no
// longer reads: the gob WAL records, checkpoints, stored values and
// manifests of the commits before the binary layouts. A node refuses to
// boot on such a data directory; there is no in-place upgrade.
var ErrFormatTooOld = errors.New("wire: data written in a format this version no longer reads")

// CheckFormat vets the byte that versions a WAL record, a checkpoint, a
// stored value or a manifest. Every version byte in the repository sits
// in 0x80..0xF7, which the first byte of a gob stream (a message length)
// never occupies, so state from before the binary layouts is recognised
// and refused with ErrFormatTooOld, not mis-decoded.
func CheckFormat(what string, got, want byte) error {
	switch {
	case got == want:
		return nil
	case got < 0x80 || got >= 0xF8: // a gob stream's leading length byte
		return fmt.Errorf("%s: %w", what, ErrFormatTooOld)
	}
	return fmt.Errorf("%s: unknown format byte %#x", what, got)
}

// NewVersionedReader vets the version byte that opens b with CheckFormat
// and returns a Reader over the rest.
func NewVersionedReader(what string, b []byte, want byte) (*Reader, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("%s: empty: %w", what, ErrMalformed)
	}
	if err := CheckFormat(what, b[0], want); err != nil {
		return nil, err
	}
	return NewReader(b[1:]), nil
}

// ── Append side ───────────────────────────────────────────────────────

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendVarint appends v zig-zag encoded.
func AppendVarint(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

// AppendBool appends one byte, 1 for true.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendBytes appends a nil-aware length header (0 = nil, else len+1)
// and the raw bytes.
func AppendBytes(dst, b []byte) []byte {
	if b == nil {
		return append(dst, 0)
	}
	dst = AppendUvarint(dst, uint64(len(b))+1)
	return append(dst, b...)
}

// AppendString appends a uvarint length and the string bytes. Strings
// have no nil state, so the length is not shifted.
func AppendString(dst []byte, s string) []byte {
	dst = AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendByteSlices appends a nil-aware list of byte slices.
func AppendByteSlices(dst []byte, bs [][]byte) []byte {
	if bs == nil {
		return append(dst, 0)
	}
	dst = AppendUvarint(dst, uint64(len(bs))+1)
	for _, b := range bs {
		dst = AppendBytes(dst, b)
	}
	return dst
}

// AppendUint64s appends a nil-aware dense counter slice: length header
// then fixed 8-byte little-endian words (the flat clock representation
// encodes and decodes with one bounds check each way).
func AppendUint64s(dst []byte, vs []uint64) []byte {
	if vs == nil {
		return append(dst, 0)
	}
	dst = AppendUvarint(dst, uint64(len(vs))+1)
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return dst
}

// AppendInts appends a nil-aware []int as varints.
func AppendInts(dst []byte, vs []int) []byte {
	if vs == nil {
		return append(dst, 0)
	}
	dst = AppendUvarint(dst, uint64(len(vs))+1)
	for _, v := range vs {
		dst = AppendVarint(dst, int64(v))
	}
	return dst
}

// AppendVector appends a nil-aware clock.Vector as (id, counter) pairs in
// the vector's order, which is by id: equal vectors encode to equal bytes.
func AppendVector(dst []byte, v clock.Vector) []byte {
	if v == nil {
		return append(dst, 0)
	}
	dst = AppendUvarint(dst, uint64(len(v))+1)
	for _, e := range v {
		dst = AppendString(dst, e.ID)
		dst = AppendUvarint(dst, e.Counter)
	}
	return dst
}

// AppendDVV appends a dotted version vector: dot node, dot counter,
// causal context.
func AppendDVV(dst []byte, d clock.DVV) []byte {
	dst = AppendString(dst, d.Dot.Node)
	dst = AppendUvarint(dst, d.Dot.Counter)
	return AppendVector(dst, d.Context)
}

// ── Read side ─────────────────────────────────────────────────────────

// Reader consumes a message payload with sticky-error reads.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b. The Reader aliases b; returned
// byte slices alias it too.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Reset points the Reader at b with no error, for callers that reuse one
// Reader across messages.
func (r *Reader) Reset(b []byte) { r.b, r.err = b, nil }

// Err returns the first decode failure (nil while healthy).
func (r *Reader) Err() error { return r.err }

// Len returns the unconsumed byte count.
func (r *Reader) Len() int { return len(r.b) }

// Close verifies the payload was fully consumed. Trailing garbage is a
// framing bug or an attack, not slack to ignore.
func (r *Reader) Close() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = ErrMalformed
	}
	return r.err
}

func (r *Reader) fail() { r.err = ErrMalformed }

// Poison marks the reader malformed. Decoders call it when a declared
// element count exceeds the bytes that could possibly hold it, instead
// of allocating on the attacker-controlled length.
func (r *Reader) Poison() { r.fail() }

// Count reads a uvarint element count. Every element of every list costs
// at least one byte, so a count beyond the bytes remaining is corrupt:
// Count fails then, before the caller allocates on the declared length.
func (r *Reader) Count() int {
	n := r.Uvarint()
	if n > uint64(len(r.b)) {
		r.fail()
		return 0
	}
	return int(n)
}

// ListLen reads a nil-aware list header (0 = nil, else count+1),
// bounding the count like Count. ok is false for a nil list and after a
// failure.
func (r *Reader) ListLen() (n int, ok bool) {
	h := r.Uvarint()
	if h == 0 || r.err != nil {
		return 0, false
	}
	if h-1 > uint64(len(r.b)) {
		r.fail()
		return 0, false
	}
	return int(h - 1), true
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a zig-zag varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Bool reads one byte as a bool.
func (r *Reader) Bool() bool {
	if r.err != nil || len(r.b) < 1 {
		r.fail()
		return false
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v != 0
}

// take consumes exactly n bytes, failing (without allocating) when
// fewer remain.
func (r *Reader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	b := r.b[:n:n]
	r.b = r.b[n:]
	return b
}

// Bytes reads a nil-aware byte slice. The result aliases the buffer.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if n == 0 || r.err != nil {
		return nil
	}
	return r.take(n - 1)
}

// Raw reads a plain uvarint-length-prefixed byte slice (no nil state;
// zero length is an empty slice). The result aliases the buffer.
func (r *Reader) Raw() []byte {
	return r.take(r.Uvarint())
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	return string(r.take(r.Uvarint()))
}

// ID reads a length-prefixed string that names a node, a client or a
// zone (or a client operation), and interns it. Such names recur in
// every message and every stored version — envelope addresses, dots,
// context entries — but come from a small, slowly changing set, so ID
// hands out one shared string per name and decoding them does not
// allocate in the steady state.
func (r *Reader) ID() string {
	return intern(r.take(r.Uvarint()))
}

// The intern table is a fixed-size cache, not a registry: a name has two
// candidate slots picked by its hash, a miss fills an empty one or
// overwrites the first, and a name that keeps losing its slot merely
// costs the allocation it would have cost without the table. Slots are
// atomic pointers, so readers on any goroutine share it without a lock.
const (
	internSlots  = 512 // a power of two
	internMaxLen = 64
)

var interned [internSlots]atomic.Pointer[string]

func intern(b []byte) string {
	if len(b) == 0 || len(b) > internMaxLen {
		return string(b)
	}
	h := uint64(14695981039346656037) // FNV-1a
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	first, second := &interned[h%internSlots], &interned[(h>>32)%internSlots]
	p, q := first.Load(), second.Load()
	switch {
	case p != nil && *p == string(b): // the conversion in a comparison does not allocate
		return *p
	case q != nil && *q == string(b):
		return *q
	}
	s := string(b)
	if p != nil && q == nil {
		second.Store(&s)
	} else {
		first.Store(&s)
	}
	return s
}

// ByteSlices reads a nil-aware list of byte slices.
func (r *Reader) ByteSlices() [][]byte {
	n, ok := r.ListLen()
	if !ok {
		return nil
	}
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.Bytes())
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Uint64s reads a nil-aware dense counter slice.
func (r *Reader) Uint64s() []uint64 {
	n, ok := r.ListLen()
	if !ok {
		return nil
	}
	raw := r.take(uint64(n) * 8)
	if r.err != nil {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(raw[i*8:])
	}
	return out
}

// Ints reads a nil-aware []int.
func (r *Reader) Ints() []int {
	n, ok := r.ListLen()
	if !ok {
		return nil
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		v := r.Varint()
		if int64(int(v)) != v {
			r.fail()
			return nil
		}
		out = append(out, int(v))
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Vector reads a nil-aware clock.Vector into one exactly sized slice.
// AppendVector writes entries in id order, but an earlier version wrote
// them in map order, so a list out of order is sorted, and an id listed
// twice keeps its larger counter.
func (r *Reader) Vector() clock.Vector {
	n, ok := r.ListLen()
	if !ok {
		return nil
	}
	es := make([]clock.Entry, n)
	for i := range es {
		es[i] = clock.Entry{ID: r.ID(), Counter: r.Uvarint()}
	}
	if r.err != nil {
		return nil
	}
	return clock.VectorOf(es...)
}

// SkipVector steps over a nil-aware clock.Vector without building it.
func (r *Reader) SkipVector() {
	n, _ := r.ListLen()
	for i := 0; i < n; i++ {
		r.take(r.Uvarint()) // id
		r.Uvarint()         // counter
	}
}

// DVV reads a dotted version vector.
func (r *Reader) DVV() clock.DVV {
	var d clock.DVV
	d.Dot.Node = r.ID()
	d.Dot.Counter = r.Uvarint()
	d.Context = r.Vector()
	return d
}

// ── Sizes, for callers presizing buffers ──────────────────────────────

// UvarintLen returns the encoded size of v.
func UvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// SizeBytes returns len(AppendBytes(nil, b)).
func SizeBytes(b []byte) int {
	if b == nil {
		return 1
	}
	return UvarintLen(uint64(len(b))+1) + len(b)
}

// SizeString returns len(AppendString(nil, s)).
func SizeString(s string) int {
	return UvarintLen(uint64(len(s))) + len(s)
}

// SizeDVV returns len(AppendDVV(nil, d)).
func SizeDVV(d clock.DVV) int {
	n := SizeString(d.Dot.Node) + UvarintLen(d.Dot.Counter) + 1
	if d.Context != nil {
		n += UvarintLen(uint64(len(d.Context))+1) - 1
		for _, e := range d.Context {
			n += SizeString(e.ID) + UvarintLen(e.Counter)
		}
	}
	return n
}
