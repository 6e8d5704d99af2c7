package ot

import (
	"math/rand"
	"testing"

	"repro/internal/crdt"
)

var opSink Op

func BenchmarkOTTransform(b *testing.B) {
	a := InsertOp(5, "x", "s1")
	d := DeleteOp(2, 4, "s2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opSink = Transform(a, d)
	}
}

// BenchmarkOTvsRGAEditing compares the two convergence techniques for
// sequences on the same editing pattern: N sequential inserts at random
// positions, with one remote op transformed/integrated per local edit.
func BenchmarkOTvsRGAEditing(b *testing.B) {
	b.Run("ot-jupiter", func(b *testing.B) {
		srv := NewServer("")
		cl := NewClient("c", "", 0)
		r := rand.New(rand.NewSource(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			docLen := len(cl.Doc())
			m, ok := cl.Insert(r.Intn(docLen+1), "x")
			if ok {
				bm := srv.Submit(m)
				if m2, ok2 := cl.Receive(bm); ok2 {
					cl.Receive(srv.Submit(m2))
				}
			}
		}
	})
	b.Run("rga", func(b *testing.B) {
		doc := crdt.NewRGA[rune]("c")
		r := rand.New(rand.NewSource(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			doc.Insert(r.Intn(doc.Len()+1), 'x')
		}
	})
}
