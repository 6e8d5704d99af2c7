// Package wiretest is the shared harness behind every protocol
// package's codec tests: a deterministic message generator and a
// checker asserting the property the wire format promises —
// decode(encode(x)) == x, nil-ness and emptiness included. Each protocol
// package owns generators for its (unexported) wire types and feeds them
// through Check from its FuzzCodecRoundTrip target and TestCodecRoundTrip
// property test. CopyTree serves the golden on-disk fixture tests of the
// same packages.
package wiretest

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/clock"
	"repro/internal/transport"
)

// Check frames msg inside an envelope, decodes the frame, and fails t
// unless the round trip consumes the whole frame and reproduces the
// original exactly. A frame carries no addresses (a reader takes them
// from its link), so the envelope holds none.
func Check(t testing.TB, msg transport.Message) {
	t.Helper()
	env := transport.Envelope{Msg: msg}

	frame, err := transport.AppendFrame(nil, env)
	if err != nil {
		t.Fatalf("encode %T: %v", msg, err)
	}
	got, n, err := transport.DecodeFrame(frame)
	if err != nil {
		t.Fatalf("decode %T: %v", msg, err)
	}
	if n != len(frame) {
		t.Fatalf("decode %T consumed %d of %d bytes", msg, n, len(frame))
	}
	if !reflect.DeepEqual(got, env) {
		t.Fatalf("round trip of %T:\n got  %#v\n want %#v", msg, got.Msg, env.Msg)
	}
}

// CopyTree copies the directory src to dst, so a test can open a
// committed fixture for append without touching the committed files.
func CopyTree(t testing.TB, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path) // path is under src by construction
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Gen is a deterministic random generator for wire-type fields.
type Gen struct{ R *rand.Rand }

// NewGen returns a generator seeded with seed.
func NewGen(seed int64) *Gen {
	return &Gen{R: rand.New(rand.NewSource(seed))}
}

const strAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789:#/-"

// Str returns a string of length 0..16.
func (g *Gen) Str() string {
	n := g.R.Intn(17)
	b := make([]byte, n)
	for i := range b {
		b[i] = strAlphabet[g.R.Intn(len(strAlphabet))]
	}
	return string(b)
}

// Bool returns a random bool.
func (g *Gen) Bool() bool { return g.R.Intn(2) == 1 }

// Uint64 returns a full-width random uint64 (half the time small, to
// exercise both short and long varints).
func (g *Gen) Uint64() uint64 {
	if g.Bool() {
		return uint64(g.R.Intn(128))
	}
	return g.R.Uint64()
}

// Int64 returns a signed value spanning both zig-zag halves.
func (g *Gen) Int64() int64 {
	v := int64(g.Uint64())
	if g.Bool() {
		return -v
	}
	return v
}

// Byte returns one random byte.
func (g *Gen) Byte() byte { return byte(g.R.Intn(256)) }

// Bytes returns nil a quarter of the time, else 0..32 random bytes. The
// collection generators all emit nil and empty-but-non-nil alike: the
// codec's n+1 length headers keep the two apart.
func (g *Gen) Bytes() []byte {
	if g.R.Intn(4) == 0 {
		return nil
	}
	b := make([]byte, g.R.Intn(33))
	g.R.Read(b)
	return b
}

// ByteSlices returns nil or 0..4 elements of Bytes.
func (g *Gen) ByteSlices() [][]byte {
	if g.R.Intn(4) == 0 {
		return nil
	}
	out := make([][]byte, g.R.Intn(5))
	for i := range out {
		out[i] = g.Bytes()
	}
	return out
}

// Uint64s returns nil or 0..8 random counters.
func (g *Gen) Uint64s() []uint64 {
	if g.R.Intn(4) == 0 {
		return nil
	}
	out := make([]uint64, g.R.Intn(9))
	for i := range out {
		out[i] = g.Uint64()
	}
	return out
}

// Ints returns nil or 0..8 random ints.
func (g *Gen) Ints() []int {
	if g.R.Intn(4) == 0 {
		return nil
	}
	out := make([]int, g.R.Intn(9))
	for i := range out {
		out[i] = int(g.Int64())
	}
	return out
}

// Vector returns nil or a clock.Vector of 0..4 entries.
func (g *Gen) Vector() clock.Vector {
	if g.R.Intn(4) == 0 {
		return nil
	}
	es := make([]clock.Entry, g.R.Intn(5))
	for i := range es {
		es[i] = clock.Entry{ID: "node" + g.Str(), Counter: g.Uint64()}
	}
	return clock.VectorOf(es...)
}

// DVV returns a random dotted version vector.
func (g *Gen) DVV() clock.DVV {
	return clock.DVV{
		Dot:     clock.Dot{Node: g.Str(), Counter: g.Uint64()},
		Context: g.Vector(),
	}
}
