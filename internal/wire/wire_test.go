package wire

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/clock"
)

// codecCase is one value through one Append*/Reader pair.
type codecCase struct {
	name string
	enc  func(dst []byte) []byte
	dec  func(r *Reader) any
	want any
	size int // what the matching Size* helper predicts, -1 when there is none
}

func codecCases() []codecCase {
	var cases []codecCase
	add := func(name string, want any, size int, enc func([]byte) []byte, dec func(*Reader) any) {
		cases = append(cases, codecCase{name: name, enc: enc, dec: dec, want: want, size: size})
	}
	for _, v := range []uint64{0, 1, 127, 128, 1 << 32, math.MaxUint64} {
		add("uvarint", v, UvarintLen(v),
			func(b []byte) []byte { return AppendUvarint(b, v) },
			func(r *Reader) any { return r.Uvarint() })
	}
	for _, v := range []int64{0, -1, 1, 63, -64, 64, math.MinInt64, math.MaxInt64} {
		add("varint", v, -1,
			func(b []byte) []byte { return AppendVarint(b, v) },
			func(r *Reader) any { return r.Varint() })
	}
	for _, v := range []bool{false, true} {
		add("bool", v, 1,
			func(b []byte) []byte { return AppendBool(b, v) },
			func(r *Reader) any { return r.Bool() })
	}
	for _, v := range [][]byte{nil, {}, {0}, []byte("value"), make([]byte, 300)} {
		add("bytes", v, SizeBytes(v),
			func(b []byte) []byte { return AppendBytes(b, v) },
			func(r *Reader) any { return r.Bytes() })
	}
	for _, v := range []string{"", "k", "a longer key with spaces"} {
		add("string", v, SizeString(v),
			func(b []byte) []byte { return AppendString(b, v) },
			func(r *Reader) any { return r.String() })
		add("id", v, SizeString(v),
			func(b []byte) []byte { return AppendString(b, v) },
			func(r *Reader) any { return r.ID() })
		// Raw reads what AppendString writes, as bytes.
		add("raw", []byte(v), SizeString(v),
			func(b []byte) []byte { return AppendString(b, v) },
			func(r *Reader) any { return r.Raw() })
		add("count", len(v), -1,
			func(b []byte) []byte { return AppendString(b, v) },
			func(r *Reader) any { n := r.Count(); r.take(uint64(n)); return n })
	}
	for _, v := range [][][]byte{nil, {}, {nil}, {{}, nil, []byte("x")}} {
		add("byteslices", v, -1,
			func(b []byte) []byte { return AppendByteSlices(b, v) },
			func(r *Reader) any { return r.ByteSlices() })
	}
	for _, v := range [][]uint64{nil, {}, {0}, {1, math.MaxUint64, 7}} {
		add("uint64s", v, -1,
			func(b []byte) []byte { return AppendUint64s(b, v) },
			func(r *Reader) any { return r.Uint64s() })
	}
	for _, v := range [][]int{nil, {}, {0}, {-1, 1 << 40, math.MinInt64}} {
		add("ints", v, -1,
			func(b []byte) []byte { return AppendInts(b, v) },
			func(r *Reader) any { return r.Ints() })
	}
	vectors := []clock.Vector{nil, {}, {{ID: "n1", Counter: 1}}, {{ID: "", Counter: 0}, {ID: "n1", Counter: 3}, {ID: "node-two", Counter: math.MaxUint64}}}
	for _, v := range vectors {
		add("vector", v, -1,
			func(b []byte) []byte { return AppendVector(b, v) },
			func(r *Reader) any { return r.Vector() })
		d := clock.DVV{Dot: clock.Dot{Node: "coord", Counter: 1 << 20}, Context: v}
		add("dvv", d, SizeDVV(d),
			func(b []byte) []byte { return AppendDVV(b, d) },
			func(r *Reader) any { return r.DVV() })
	}
	return cases
}

// Every pair round-trips exactly — nil stays nil and empty stays empty —
// consumes exactly what it wrote, and the Size helpers predict it.
func TestRoundTrip(t *testing.T) {
	for _, c := range codecCases() {
		b := c.enc(nil)
		if c.size >= 0 && c.size != len(b) {
			t.Errorf("%s %#v: size helper says %d, encoding is %d bytes", c.name, c.want, c.size, len(b))
		}
		r := NewReader(b)
		got := c.dec(r)
		if err := r.Close(); err != nil {
			t.Errorf("%s %#v: %v after a clean decode", c.name, c.want, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: decoded %#v, want %#v", c.name, got, c.want)
		}
		// Appending extends dst and leaves what was there alone.
		ext := c.enc([]byte{0xAA})
		if r := NewReader(ext[1:]); ext[0] != 0xAA || !reflect.DeepEqual(c.dec(r), c.want) || r.Close() != nil {
			t.Errorf("%s %#v: appended onto a prefix as %x", c.name, c.want, ext)
		}
	}
}

// A strict prefix of an encoding never decodes: the encodings are
// self-delimiting, so a cut one is short of bytes somewhere.
func TestTruncationAtEveryPrefix(t *testing.T) {
	for _, c := range codecCases() {
		b := c.enc(nil)
		for i := 0; i < len(b); i++ {
			r := NewReader(b[:i])
			got := c.dec(r)
			if r.Err() == nil {
				t.Errorf("%s %#v: first %d of %d bytes decoded to %#v", c.name, c.want, i, len(b), got)
			}
		}
	}
}

func TestCloseRejectsTrailingBytes(t *testing.T) {
	for _, c := range codecCases() {
		r := NewReader(append(c.enc(nil), 0))
		c.dec(r)
		if r.Err() != nil {
			t.Fatalf("%s %#v: %v before Close", c.name, c.want, r.Err())
		}
		if r.Close() != ErrMalformed {
			t.Errorf("%s %#v: Close accepted a trailing byte", c.name, c.want)
		}
	}
}

// After the first failure every read returns zero and the error stays.
func TestStickyError(t *testing.T) {
	r := NewReader([]byte{5, 'a'}) // a 5-byte string with one byte present
	if s := r.String(); s != "" || r.Err() != ErrMalformed {
		t.Fatalf("short string read %q, err %v", s, r.Err())
	}
	if r.Uvarint() != 0 || r.Varint() != 0 || r.Bool() || r.Bytes() != nil || r.Raw() != nil ||
		r.String() != "" || r.ByteSlices() != nil || r.Uint64s() != nil || r.Ints() != nil ||
		r.Vector() != nil || r.Count() != 0 || !reflect.DeepEqual(r.DVV(), clock.DVV{}) {
		t.Fatal("a read after the failure returned a non-zero value")
	}
	if _, ok := r.ListLen(); ok {
		t.Fatal("ListLen succeeded after the failure")
	}
	if r.Close() != ErrMalformed {
		t.Fatal("Close lost the error")
	}
}

// A declared length or count beyond the bytes that remain fails before
// anything is allocated for it.
func TestOversizedCountsFailWithoutAllocating(t *testing.T) {
	readers := map[string]func(r *Reader){
		"bytes":      func(r *Reader) { r.Bytes() },
		"raw":        func(r *Reader) { r.Raw() },
		"string":     func(r *Reader) { _ = r.String() },
		"id":         func(r *Reader) { _ = r.ID() },
		"byteslices": func(r *Reader) { r.ByteSlices() },
		"uint64s":    func(r *Reader) { r.Uint64s() },
		"ints":       func(r *Reader) { r.Ints() },
		"vector":     func(r *Reader) { r.Vector() },
		"count":      func(r *Reader) { r.Count() },
		"listlen":    func(r *Reader) { r.ListLen() },
	}
	// 1<<61 + 1 is the list header whose count times eight wraps to zero.
	for _, declared := range []uint64{9, 1 << 20, 1<<61 + 1, math.MaxUint64} {
		input := append(AppendUvarint(nil, declared), 1, 2, 3, 4, 5, 6)
		for name, read := range readers {
			var r Reader // outside the measured call: the indirect read makes it escape
			allocs := testing.AllocsPerRun(10, func() {
				r = Reader{b: input}
				read(&r)
			})
			if r.err == nil {
				t.Errorf("%s: declared %d with 6 bytes left decoded", name, declared)
			}
			if allocs != 0 {
				t.Errorf("%s: declared %d allocated %v times before failing", name, declared, allocs)
			}
		}
	}
}

// ID hands out one shared string per name without allocating once the
// name is known, whichever Reader reads it; names too long to be
// identifiers are copied like any string.
func TestIDInterns(t *testing.T) {
	enc := AppendString(nil, "node-7#gw3")
	first := NewReader(enc).ID()
	var r Reader
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(enc)
		if r.ID() != first {
			t.Fatal("interned id changed")
		}
	})
	if allocs != 0 || r.Close() != nil {
		t.Fatalf("reading a known id: %v allocs, err %v", allocs, r.Err())
	}
	long := string(make([]byte, internMaxLen+1))
	if got := NewReader(AppendString(nil, long)).ID(); got != long {
		t.Fatalf("long id read as %d bytes, want %d", len(got), len(long))
	}
	// Many names through few slots: every read still returns its own name.
	for round := 0; round < 2; round++ {
		for i := 0; i < 4*internSlots; i++ {
			name := "client-" + string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune('A'+i/260))
			if got := NewReader(AppendString(nil, name)).ID(); got != name {
				t.Fatalf("id %q read back as %q", name, got)
			}
		}
	}
}

// The intern table is shared by every goroutine that decodes.
func TestIDInternsConcurrently(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				name := "node" + string(rune('0'+(i+g)%10)) + "#gw" + string(rune('0'+i%7))
				if got := NewReader(AppendString(nil, name)).ID(); got != name {
					t.Errorf("id %q read back as %q", name, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestPoison(t *testing.T) {
	r := NewReader([]byte{1})
	r.Poison()
	if r.Err() != ErrMalformed || r.Uvarint() != 0 || r.Len() != 1 {
		t.Fatalf("poisoned reader: err %v, %d bytes left", r.Err(), r.Len())
	}
}

// FuzzReader: no input makes a reader panic or over-allocate, a failed
// read leaves the error set, and whatever does decode survives a second
// trip through its encoder.
func FuzzReader(f *testing.F) {
	for _, c := range codecCases() {
		f.Add(c.enc(nil))
	}
	f.Add(AppendUvarint(nil, 1<<61+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		again := []struct {
			name string
			dec  func(r *Reader) any
			enc  func(v any) []byte
		}{
			{"bytes", func(r *Reader) any { return r.Bytes() }, func(v any) []byte { return AppendBytes(nil, v.([]byte)) }},
			{"string", func(r *Reader) any { return r.String() }, func(v any) []byte { return AppendString(nil, v.(string)) }},
			{"byteslices", func(r *Reader) any { return r.ByteSlices() }, func(v any) []byte { return AppendByteSlices(nil, v.([][]byte)) }},
			{"uint64s", func(r *Reader) any { return r.Uint64s() }, func(v any) []byte { return AppendUint64s(nil, v.([]uint64)) }},
			{"ints", func(r *Reader) any { return r.Ints() }, func(v any) []byte { return AppendInts(nil, v.([]int)) }},
			{"vector", func(r *Reader) any { return r.Vector() }, func(v any) []byte { return AppendVector(nil, v.(clock.Vector)) }},
			{"dvv", func(r *Reader) any { return r.DVV() }, func(v any) []byte { return AppendDVV(nil, v.(clock.DVV)) }},
		}
		for _, c := range again {
			r := NewReader(data)
			v := c.dec(r)
			if r.Err() != nil {
				if r.Uvarint() != 0 || r.Close() != ErrMalformed {
					t.Fatalf("%s: error did not stick", c.name)
				}
				continue
			}
			r2 := NewReader(c.enc(v))
			if v2 := c.dec(r2); r2.Close() != nil || !reflect.DeepEqual(v, v2) {
				t.Fatalf("%s: %#v re-encoded and decoded to %#v (err %v)", c.name, v, v2, r2.Err())
			}
		}
	})
}

// listVector encodes es as AppendVector lays a vector out, in the order
// given: what an encoder that wrote its map in iteration order left.
func listVector(es ...clock.Entry) []byte {
	b := AppendUvarint(nil, uint64(len(es))+1)
	for _, e := range es {
		b = AppendUvarint(AppendString(b, e.ID), e.Counter)
	}
	return b
}

// A vector decodes from its entries in any order, into one exactly sized
// allocation once its ids are interned; an id listed twice keeps its
// larger counter; and SkipVector steps over the same bytes.
func TestVectorDecodesAnyOrder(t *testing.T) {
	listed := listVector(clock.Entry{ID: "s2", Counter: 4}, clock.Entry{ID: "c1", Counter: 9},
		clock.Entry{ID: "s0", Counter: 1}, clock.Entry{ID: "c1", Counter: 3})
	want := clock.Vector{{ID: "c1", Counter: 9}, {ID: "s0", Counter: 1}, {ID: "s2", Counter: 4}}
	r := NewReader(listed)
	if got := r.Vector(); r.Close() != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %v (err %v), want %v", got, r.Err(), want)
	}
	s := NewReader(listed)
	if s.SkipVector(); s.Close() != nil {
		t.Fatalf("SkipVector left %d bytes (err %v)", s.Len(), s.Err())
	}
	enc := AppendVector(nil, want)
	var rd Reader
	if allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(enc)
		rd.Vector()
	}); allocs != 1 {
		t.Fatalf("decoding a 3-entry vector: %v allocs, want 1", allocs)
	}
}

// FuzzVector: arbitrary bytes either fail or decode to a vector whose ids
// strictly ascend and whose encoding decodes to itself; SkipVector
// consumes exactly the bytes Vector does; and a vector drawn from seed
// round-trips byte for byte.
func FuzzVector(f *testing.F) {
	for _, c := range codecCases() {
		if c.name == "vector" {
			f.Add(c.enc(nil), int64(0))
		}
	}
	f.Add(listVector(clock.Entry{ID: "b", Counter: 2}, clock.Entry{ID: "a", Counter: 1}, clock.Entry{ID: "b", Counter: 7}), int64(1))
	f.Add(AppendUvarint(nil, 1<<61+1), int64(2))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		r, s := NewReader(data), NewReader(data)
		v := r.Vector()
		s.SkipVector()
		if (r.Err() == nil) != (s.Err() == nil) || r.Len() != s.Len() {
			t.Fatalf("Vector: err %v, %d bytes left; SkipVector: err %v, %d bytes left", r.Err(), r.Len(), s.Err(), s.Len())
		}
		if r.Err() == nil {
			for i := 1; i < len(v); i++ {
				if v[i-1].ID >= v[i].ID {
					t.Fatalf("decoded %v: ids out of order at %d", v, i)
				}
			}
			enc := AppendVector(nil, v)
			again := NewReader(enc)
			if v2 := again.Vector(); again.Close() != nil || !reflect.DeepEqual(v, v2) {
				t.Fatalf("%v re-encoded and decoded to %v (err %v)", v, v2, again.Err())
			}
		}

		rng := rand.New(rand.NewSource(seed))
		es := make([]clock.Entry, rng.Intn(6))
		for i := range es {
			es[i] = clock.Entry{ID: string(rune('a' + rng.Intn(8))), Counter: rng.Uint64() >> rng.Intn(64)}
		}
		gen := clock.VectorOf(es...)
		enc := AppendVector(nil, gen)
		got := NewReader(enc).Vector()
		if again := AppendVector(nil, got); !bytes.Equal(again, enc) || !reflect.DeepEqual(got, gen) {
			t.Fatalf("%v encoded as % x, decoded and encoded again as % x", gen, enc, again)
		}
	})
}
