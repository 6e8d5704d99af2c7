package crdt

import (
	"math/rand"
	"testing"

	"repro/internal/clock"
)

func env(origin string, seq uint64, deps clock.Vector, op any) Envelope {
	return Envelope{Origin: origin, Seq: seq, Deps: deps, Op: op}
}

func TestCausalBufferInOrderDelivery(t *testing.T) {
	b := NewCausalBuffer()
	r1 := b.Deliver(env("a", 1, nil, "op1"))
	if len(r1) != 1 || r1[0].Op != "op1" {
		t.Fatalf("delivery = %v", r1)
	}
	r2 := b.Deliver(env("a", 2, nil, "op2"))
	if len(r2) != 1 {
		t.Fatalf("second delivery = %v", r2)
	}
}

func TestCausalBufferHoldsGap(t *testing.T) {
	b := NewCausalBuffer()
	if r := b.Deliver(env("a", 2, nil, "op2")); len(r) != 0 {
		t.Fatalf("gapped op delivered early: %v", r)
	}
	if b.Pending() != 1 {
		t.Fatalf("Pending = %d", b.Pending())
	}
	r := b.Deliver(env("a", 1, nil, "op1"))
	if len(r) != 2 || r[0].Op != "op1" || r[1].Op != "op2" {
		t.Fatalf("release order wrong: %v", r)
	}
	if b.Pending() != 0 {
		t.Fatal("pending not drained")
	}
}

func TestCausalBufferCrossOriginDependency(t *testing.T) {
	b := NewCausalBuffer()
	// b's op depends on a's op 1 (it saw it before issuing).
	dep := clock.Vector{{ID: "a", Counter: 1}}
	if r := b.Deliver(env("b", 1, dep, "b1")); len(r) != 0 {
		t.Fatalf("op with unmet cross dep delivered: %v", r)
	}
	r := b.Deliver(env("a", 1, nil, "a1"))
	if len(r) != 2 || r[0].Op != "a1" || r[1].Op != "b1" {
		t.Fatalf("causal release order wrong: %v", r)
	}
}

func TestCausalBufferDropsDuplicates(t *testing.T) {
	b := NewCausalBuffer()
	b.Deliver(env("a", 1, nil, "op1"))
	if r := b.Deliver(env("a", 1, nil, "op1-dup")); len(r) != 0 {
		t.Fatalf("duplicate delivered: %v", r)
	}
	if b.Pending() != 0 {
		t.Fatal("duplicate parked in pending")
	}
}

func TestCausalBufferAppliedVector(t *testing.T) {
	b := NewCausalBuffer()
	b.Deliver(env("a", 1, nil, "x"))
	b.Deliver(env("b", 1, nil, "y"))
	ap := b.Applied()
	if ap.Get("a") != 1 || ap.Get("b") != 1 {
		t.Fatalf("Applied = %v", ap)
	}
	// A vector derived from Applied's leaves the buffer's alone.
	if bumped := ap.With("a", ap.Get("a")+1); bumped.Get("a") != 2 || b.Applied().Get("a") != 1 {
		t.Fatal("Applied aliases internal state")
	}
}

func TestOpCounterCommutes(t *testing.T) {
	ops := []CounterOp{{Delta: 5}, {Delta: -2}, {Delta: 7}}
	a, b := NewOpCounter(), NewOpCounter()
	for _, op := range ops {
		a.Apply(op)
	}
	for i := len(ops) - 1; i >= 0; i-- {
		b.Apply(ops[i])
	}
	if a.Value() != b.Value() || a.Value() != 10 {
		t.Fatalf("order dependence: %d vs %d", a.Value(), b.Value())
	}
}

func TestOpORSetAddRemove(t *testing.T) {
	s := NewOpORSet[string]("a")
	addOp := s.Add("x")
	if !s.Contains("x") {
		t.Fatal("add failed")
	}
	rmOp, ok := s.Remove("x")
	if !ok || s.Contains("x") {
		t.Fatal("remove failed")
	}
	if _, ok := s.Remove("ghost"); ok {
		t.Fatal("remove of absent element returned an op")
	}
	// Remote replica applies in causal order.
	r := NewOpORSet[string]("b")
	r.Apply(addOp)
	if !r.Contains("x") {
		t.Fatal("remote add failed")
	}
	r.Apply(rmOp)
	if r.Contains("x") {
		t.Fatal("remote remove failed")
	}
}

func TestOpORSetAddWinsUnderCausalDelivery(t *testing.T) {
	// a removes x; b concurrently re-adds x with a new tag. With causal
	// delivery (each remove only names tags its issuer observed), both
	// replicas converge to x present.
	a := NewOpORSet[string]("a")
	b := NewOpORSet[string]("b")
	add1 := a.Add("x")
	b.Apply(add1)

	rm, _ := a.Remove("x") // removes only tag a#1
	add2 := b.Add("x")     // concurrent new tag b#1

	a.Apply(add2)
	b.Apply(rm)
	if !a.Contains("x") || !b.Contains("x") {
		t.Fatal("concurrent add must win")
	}
	if len(a.Elements()) != 1 || a.Len() != 1 {
		t.Fatalf("elements = %v", a.Elements())
	}
}

// TestOpORSetFullStackWithCausalBuffer wires OpORSet through CausalBuffer
// with randomized delivery order and checks convergence — the op-based
// correctness contract: convergence given causal, exactly-once delivery.
func TestOpORSetFullStackWithCausalBuffer(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	type replica struct {
		set *OpORSet[int]
		buf *CausalBuffer
		seq uint64
		id  string
	}
	mk := func(id string) *replica {
		return &replica{set: NewOpORSet[int](id), buf: NewCausalBuffer(), id: id}
	}
	reps := []*replica{mk("a"), mk("b"), mk("c")}
	var wire []Envelope

	issue := func(rep *replica, op any) {
		rep.seq++
		e := Envelope{Origin: rep.id, Seq: rep.seq, Deps: rep.buf.Applied(), Op: op}
		// Local ops count as applied at the origin immediately.
		rep.buf.Deliver(e)
		wire = append(wire, e)
	}

	for i := 0; i < 200; i++ {
		rep := reps[r.Intn(3)]
		v := r.Intn(8)
		if r.Intn(3) == 0 {
			if op, ok := rep.set.Remove(v); ok {
				issue(rep, op)
			}
		} else {
			issue(rep, rep.set.Add(v))
		}
	}

	// Deliver the whole wire to every replica in a different random
	// order, with duplicates injected.
	for _, rep := range reps {
		perm := r.Perm(len(wire))
		for _, i := range perm {
			e := wire[i]
			ready := rep.buf.Deliver(e)
			for _, re := range ready {
				if re.Origin == rep.id {
					continue // local ops were applied at issue time
				}
				rep.set.Apply(re.Op)
			}
			if r.Intn(4) == 0 { // duplicate
				if extra := rep.buf.Deliver(e); len(extra) != 0 {
					t.Fatal("duplicate envelope re-delivered")
				}
			}
		}
		if rep.buf.Pending() != 0 {
			t.Fatalf("replica %s has %d stuck ops", rep.id, rep.buf.Pending())
		}
	}

	e0 := SortedInts(reps[0].set.Elements())
	for _, rep := range reps[1:] {
		e := SortedInts(rep.set.Elements())
		if len(e) != len(e0) {
			t.Fatalf("diverged: %v vs %v", e0, e)
		}
		for i := range e {
			if e[i] != e0[i] {
				t.Fatalf("diverged: %v vs %v", e0, e)
			}
		}
	}
}

func TestEnvelopeWireSize(t *testing.T) {
	e := Envelope{Origin: "a", Seq: 1, Deps: clock.Vector{{ID: "a", Counter: 1}, {ID: "b", Counter: 2}}, Op: CounterOp{Delta: 1}}
	want := 1 + 8 + 2*16 + 8
	if e.WireSize() != want {
		t.Fatalf("WireSize = %d, want %d", e.WireSize(), want)
	}
	// Unknown payloads use the default estimate.
	e2 := Envelope{Origin: "a", Seq: 1, Op: "opaque"}
	if e2.WireSize() != 1+8+16 {
		t.Fatalf("default WireSize = %d", e2.WireSize())
	}
}
