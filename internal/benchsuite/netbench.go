package benchsuite

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/wire"
)

// benchPayload is the wire message the framing benchmarks ship: the
// shape (a key, a value, a small vector-clock-like map) mirrors what
// the protocols actually put in envelopes. It carries both codecs so
// the framing benchmarks measure the binary fast path the protocols
// use (wire id 60; see transport.BinaryMessage).
type benchPayload struct {
	Key string
	Val []byte
	Vec map[string]uint64
}

func (benchPayload) WireID() uint16 { return 60 }

func (m benchPayload) AppendBinary(dst []byte) []byte {
	dst = wire.AppendString(dst, m.Key)
	dst = wire.AppendBytes(dst, m.Val)
	if m.Vec == nil {
		return append(dst, 0)
	}
	dst = wire.AppendUvarint(dst, uint64(len(m.Vec))+1)
	for id, c := range m.Vec {
		dst = wire.AppendString(dst, id)
		dst = wire.AppendUvarint(dst, c)
	}
	return dst
}

func init() {
	transport.RegisterBinary(60, func(r *wire.Reader) transport.Message {
		m := benchPayload{Key: r.String(), Val: r.Bytes()}
		n, ok := r.ListLen()
		if !ok {
			return m
		}
		m.Vec = make(map[string]uint64, n)
		for i := 0; i < n; i++ {
			id := r.String()
			m.Vec[id] = r.Uvarint()
		}
		return m
	})
}

func framePayload(size int) transport.Envelope {
	val := make([]byte, size)
	rng := rand.New(rand.NewSource(42))
	rng.Read(val)
	return transport.Envelope{
		From: "node0#gw",
		To:   "node7",
		Msg: benchPayload{
			Key: "cart:7f3a9c2e",
			Val: val,
			Vec: map[string]uint64{"node0": 17, "node3": 4, "node7": 112},
		},
	}
}

// frameEncode measures AppendFrame: one binary encode plus the length
// prefix, the per-message send cost of the TCP transport.
func frameEncode(b *testing.B, size int) {
	e := framePayload(size)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = transport.AppendFrame(buf[:0], e)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}

// frameDecode measures ReadFrame on an in-memory frame: the
// per-message receive cost.
func frameDecode(b *testing.B, size int) {
	buf, err := transport.AppendFrame(nil, framePayload(size))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := transport.DecodeFrame(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRing(members int) *ring.Ring {
	ids := make([]string, members)
	for i := range ids {
		ids[i] = fmt.Sprintf("node%d", i)
	}
	return ring.New(ids, ring.DefaultVirtualNodes)
}

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key:%08x", i*2654435761)
	}
	return keys
}

// ringOwner measures single-owner lookup: hash + binary search over
// members*vnodes points — the per-request routing cost in the server.
func ringOwner(b *testing.B, members int) {
	r := benchRing(members)
	keys := ringKeys(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Owner(keys[i&1023]) == "" {
			b.Fatal("empty owner")
		}
	}
}

// ringReplicas measures N-successor placement (the preference-list
// computation): a clockwise walk collecting distinct owners.
func ringReplicas(b *testing.B, members int) {
	r := benchRing(members)
	keys := ringKeys(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.Replicas(keys[i&1023], 3)) != 3 {
			b.Fatal("short replica set")
		}
	}
}

// ringJoinDiff measures membership change: building the post-join ring
// plus computing the moved arcs that drive targeted anti-entropy.
func ringJoinDiff(b *testing.B) {
	r := benchRing(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r2 := r.Join("node99")
		if len(ring.Diff(r, r2)) == 0 {
			b.Fatal("join moved nothing")
		}
	}
}
