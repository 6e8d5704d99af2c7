package clock

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// TestHLCQuickMonotonic: under any interleaving of local events, remote
// observations, and (non-decreasing) physical clock advances, the stamps
// an HLC emits are strictly increasing.
func TestHLCQuickMonotonic(t *testing.T) {
	type step struct {
		advance uint8 // physical time advance (may be 0 = stalled clock)
		remote  bool
		rWall   uint16
		rLog    uint8
	}
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(args []reflect.Value, r *rand.Rand) {
			steps := make([]step, 1+r.Intn(60))
			for i := range steps {
				steps[i] = step{
					advance: uint8(r.Intn(4)),
					remote:  r.Intn(3) == 0,
					rWall:   uint16(r.Intn(1000)),
					rLog:    uint8(r.Intn(5)),
				}
			}
			args[0] = reflect.ValueOf(steps)
		},
	}
	prop := func(steps []step) bool {
		var pt int64
		h := NewHLC("n", func() int64 { return pt })
		prev := HLCTimestamp{Wall: -1}
		for _, s := range steps {
			pt += int64(s.advance)
			var ts HLCTimestamp
			if s.remote {
				ts = h.Observe(HLCTimestamp{Wall: int64(s.rWall), Logical: uint32(s.rLog), Node: "m"})
			} else {
				ts = h.Now()
			}
			if !prev.Before(ts) {
				return false
			}
			prev = ts
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestHLCQuickObserveDominates: every Observe returns a stamp strictly
// after the remote stamp it merged (no message ordered before its cause).
func TestHLCQuickObserveDominates(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(int64(r.Intn(1000)))
			args[1] = reflect.ValueOf(HLCTimestamp{
				Wall: int64(r.Intn(2000)), Logical: uint32(r.Intn(10)), Node: "m",
			})
		},
	}
	prop := func(pt int64, remote HLCTimestamp) bool {
		h := NewHLC("n", func() int64 { return pt })
		return remote.Before(h.Observe(remote))
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestDVVQuickSupersessionOrder: for any sequence of contextual writes
// (each reading the full current sibling set first), the sibling count
// stays exactly 1 — supersession is total under read-modify-write.
func TestDVVQuickSupersessionOrder(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, r *rand.Rand) {
			nodes := make([]string, 1+r.Intn(20))
			for i := range nodes {
				nodes[i] = string(rune('a' + r.Intn(4)))
			}
			args[0] = reflect.ValueOf(nodes)
		},
	}
	prop := func(nodes []string) bool {
		var s Siblings[int]
		var mint Vector // per node, the last dot counter minted
		for i, node := range nodes {
			d := MintDVV(node, s.Context(), mint.Get(node))
			mint = mint.With(node, d.Dot.Counter)
			s.Add(d, i)
			if s.Len() != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
