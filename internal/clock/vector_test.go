package clock

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestVectorCompareTable(t *testing.T) {
	tests := []struct {
		name string
		a, b Vector
		want Ordering
	}{
		{"both empty", Vector{}, Vector{}, Equal},
		{"nil vs empty", nil, Vector{}, Equal},
		{"identical", Vector{{"a", 1}, {"b", 2}}, Vector{{"a", 1}, {"b", 2}}, Equal},
		{"zero entry equals absent", Vector{{"a", 1}, {"b", 0}}, Vector{{"a", 1}}, Equal},
		{"simple before", Vector{{"a", 1}}, Vector{{"a", 2}}, Before},
		{"simple after", Vector{{"a", 3}}, Vector{{"a", 2}}, After},
		{"subset before", Vector{{"a", 1}}, Vector{{"a", 1}, {"b", 1}}, Before},
		{"superset after", Vector{{"a", 1}, {"b", 1}}, Vector{{"b", 1}}, After},
		{"classic concurrent", Vector{{"a", 1}}, Vector{{"b", 1}}, Concurrent},
		{"crossed concurrent", Vector{{"a", 2}, {"b", 1}}, Vector{{"a", 1}, {"b", 2}}, Concurrent},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Compare(tt.b); got != tt.want {
				t.Errorf("%v.Compare(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
			// Compare must be antisymmetric.
			wantInv := tt.want
			switch tt.want {
			case Before:
				wantInv = After
			case After:
				wantInv = Before
			}
			if got := tt.b.Compare(tt.a); got != wantInv {
				t.Errorf("inverse %v.Compare(%v) = %v, want %v", tt.b, tt.a, got, wantInv)
			}
		})
	}
}

func TestVectorTick(t *testing.T) {
	var v Vector
	tick := func(id string) uint64 {
		v = v.With(id, v.Get(id)+1)
		return v.Get(id)
	}
	if got := tick("a"); got != 1 {
		t.Fatalf("first Tick = %d, want 1", got)
	}
	if got := tick("a"); got != 2 {
		t.Fatalf("second Tick = %d, want 2", got)
	}
	if got := v.Get("b"); got != 0 {
		t.Fatalf("Get of absent id = %d, want 0", got)
	}
}

func TestVectorDescends(t *testing.T) {
	a := Vector{{"a", 2}, {"b", 1}}
	if !a.Descends(Vector{{"a", 1}}) {
		t.Error("a should descend {a:1}")
	}
	if !a.Descends(a) {
		t.Error("Descends must be reflexive")
	}
	if !a.Descends(nil) {
		t.Error("everything descends bottom")
	}
	if a.Descends(Vector{{"c", 1}}) {
		t.Error("a must not descend a clock with unseen events")
	}
}

func TestVectorMergeObservedAfterWrite(t *testing.T) {
	// A replica that merges a remote clock then ticks must be After both.
	local := Vector{{"a", 3}}
	remote := Vector{{"b", 5}}
	merged := local.Merge(remote)
	merged = merged.With("a", merged.Get("a")+1)
	if merged.Compare(local) != After {
		t.Error("merged+tick should be After local")
	}
	if merged.Compare(remote) != After {
		t.Error("merged+tick should be After remote")
	}
}

func TestVectorSum(t *testing.T) {
	if got := (Vector{{"a", 2}, {"b", 3}}).Sum(); got != 5 {
		t.Fatalf("Sum = %d, want 5", got)
	}
}

func TestVectorString(t *testing.T) {
	v := VectorOf(Entry{"b", 2}, Entry{"a", 1})
	if got := v.String(); got != "{a:1 b:2}" {
		t.Fatalf("String = %q, want deterministic sorted form", got)
	}
}

// genVector produces a small random vector clock over a fixed id universe,
// keeping the space dense enough that all four orderings occur.
func genVector(r *rand.Rand) Vector {
	ids := []string{"a", "b", "c"}
	v := Vector{}
	for _, id := range ids {
		if n := r.Intn(4); n > 0 {
			v = append(v, Entry{id, uint64(n)})
		}
	}
	return v
}

func TestVectorMergeLatticeLaws(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(genVector(r))
			args[1] = reflect.ValueOf(genVector(r))
			args[2] = reflect.ValueOf(genVector(r))
		},
	}

	commutative := func(a, b, _ Vector) bool {
		return a.Merge(b).Compare(b.Merge(a)) == Equal
	}
	if err := quick.Check(commutative, cfg); err != nil {
		t.Errorf("merge not commutative: %v", err)
	}

	associative := func(a, b, c Vector) bool {
		return a.Merge(b).Merge(c).Compare(a.Merge(b.Merge(c))) == Equal
	}
	if err := quick.Check(associative, cfg); err != nil {
		t.Errorf("merge not associative: %v", err)
	}

	idempotent := func(a, _, _ Vector) bool {
		return a.Merge(a).Compare(a) == Equal
	}
	if err := quick.Check(idempotent, cfg); err != nil {
		t.Errorf("merge not idempotent: %v", err)
	}

	upperBound := func(a, b, _ Vector) bool {
		x := a.Merge(b)
		return x.Descends(a) && x.Descends(b)
	}
	if err := quick.Check(upperBound, cfg); err != nil {
		t.Errorf("merge not an upper bound: %v", err)
	}
}

func TestVectorCompareConsistentWithDescends(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(genVector(r))
			args[1] = reflect.ValueOf(genVector(r))
		},
	}
	prop := func(a, b Vector) bool {
		switch a.Compare(b) {
		case Equal:
			return a.Descends(b) && b.Descends(a)
		case Before:
			return b.Descends(a) && !a.Descends(b)
		case After:
			return a.Descends(b) && !b.Descends(a)
		case Concurrent:
			return !a.Descends(b) && !b.Descends(a)
		}
		return false
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("Compare inconsistent with Descends: %v", err)
	}
}

// TestDerivedVectorsLeaveTheirSourcesAlone: a vector is never written
// once shared, so every operation that derives a vector or a DVV from
// others leaves those others exactly as they were, whether it returns a
// new vector or one of its operands.
func TestDerivedVectorsLeaveTheirSourcesAlone(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		a, b := genVector(r), genVector(r)
		if r.Intn(4) == 0 {
			a = append(a, Entry{"d", 0}) // an explicit zero entry
		}
		wantA, wantB := append(Vector{}, a...), append(Vector{}, b...)
		id := string(rune('a' + r.Intn(4)))
		var s Siblings[int]
		s.Add(DVV{Dot: Dot{"a", 9}, Context: a}, 1)
		s.Add(DVV{Dot: Dot{"b", 9}, Context: b}, 2)
		derived := map[string]Vector{
			"With":             a.With(id, uint64(r.Intn(5))),
			"Merge":            a.Merge(b),
			"Merge, reversed":  b.Merge(a),
			"NewDVV":           NewDVV(id, a).Context,
			"MintDVV":          MintDVV(id, a, uint64(r.Intn(5))).Context,
			"Join":             DVV{Dot: Dot{id, 7}, Context: a}.Join(DVV{Dot: Dot{"c", 7}, Context: b}),
			"Siblings.Context": s.Context(),
		}
		if !reflect.DeepEqual(a, wantA) || !reflect.DeepEqual(b, wantB) {
			t.Fatalf("trial %d: deriving %v left a = %v, b = %v; want %v, %v", trial, derived, a, b, wantA, wantB)
		}
		// And a derived vector that differs from its source does not
		// share the source's backing array.
		for name, d := range derived {
			for _, src := range []Vector{a, b} {
				if len(d) > 0 && len(src) > 0 && &d[0] == &src[0] && !reflect.DeepEqual(d, src) {
					t.Fatalf("trial %d: %s = %v shares the backing array of %v", trial, name, d, src)
				}
			}
		}
	}
}

// VectorOf sorts by id and keeps the larger counter of a repeated id; a
// vector marshals to the JSON object a map of ids to counters would, and
// back from one in any key order.
func TestVectorOfAndJSON(t *testing.T) {
	v := VectorOf(Entry{"node1", 2}, Entry{"node0", 3}, Entry{"node1", 7}, Entry{"node1", 5})
	if want := (Vector{{"node0", 3}, {"node1", 7}}); !reflect.DeepEqual(v, want) {
		t.Fatalf("VectorOf = %v, want %v", v, want)
	}
	b, err := json.Marshal(struct{ Read, Write Vector }{Read: v})
	if err != nil || string(b) != `{"Read":{"node0":3,"node1":7},"Write":null}` {
		t.Fatalf("json.Marshal = %s, %v", b, err)
	}
	var got struct{ Read, Write Vector }
	if err := json.Unmarshal([]byte(`{"Read":{"node1":7,"node0":3},"Write":{}}`), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Read, v) || got.Write == nil || len(got.Write) != 0 {
		t.Fatalf("json.Unmarshal = %#v", got)
	}
	for _, bad := range []string{`[1]`, `{"a":-1}`, `{"a":"1"}`} {
		if err := json.Unmarshal([]byte(bad), &got.Read); err == nil {
			t.Errorf("json.Unmarshal(%s) succeeded", bad)
		}
	}
}

// TestVectorAgreesWithAReference: Get, Compare, Descends, Merge, With and
// Sum agree with the same operations on fixed-length counter arrays over
// a small id universe, for random vectors with absent and explicit-zero
// entries.
func TestVectorAgreesWithAReference(t *testing.T) {
	ids := []string{"n0", "n1", "n2", "n3", "n4", "n5"}
	type ref [6]uint64
	draw := func(r *rand.Rand) (Vector, ref) {
		var v Vector
		var a ref
		for i, id := range ids {
			if r.Intn(2) == 0 {
				a[i] = uint64(r.Intn(4))
				v = append(v, Entry{id, a[i]})
			}
		}
		return v, a
	}
	compare := func(a, b ref) Ordering {
		less, more := false, false
		for i := range a {
			less = less || a[i] < b[i]
			more = more || a[i] > b[i]
		}
		switch {
		case less && more:
			return Concurrent
		case less:
			return Before
		case more:
			return After
		}
		return Equal
	}
	asRef := func(v Vector) (a ref) {
		for i, id := range ids {
			a[i] = v.Get(id)
		}
		return a
	}
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		v, a := draw(r)
		w, b := draw(r)
		if got := asRef(v); got != a {
			t.Fatalf("Get over %v reads %v, want %v", v, got, a)
		}
		if got, want := v.Compare(w), compare(a, b); got != want {
			t.Fatalf("%v.Compare(%v) = %v, reference %v", v, w, got, want)
		}
		if got, want := v.Descends(w), compare(a, b) == After || compare(a, b) == Equal; got != want {
			t.Fatalf("%v.Descends(%v) = %v, reference %v", v, w, got, want)
		}
		var join ref
		var sum uint64
		for i := range join {
			join[i] = max(a[i], b[i])
			sum += a[i]
		}
		if got := asRef(v.Merge(w)); got != join {
			t.Fatalf("%v.Merge(%v) reads %v, reference %v", v, w, got, join)
		}
		if got := v.Sum(); got != sum {
			t.Fatalf("%v.Sum() = %d, reference %d", v, got, sum)
		}
		i, n := r.Intn(len(ids)), uint64(r.Intn(4))
		with := a
		with[i] = n
		if got := asRef(v.With(ids[i], n)); got != with {
			t.Fatalf("%v.With(%s, %d) reads %v, reference %v", v, ids[i], n, got, with)
		}
	}
}
