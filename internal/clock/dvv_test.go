package clock

import "testing"

func TestNewDVVAdvancesNodeCounter(t *testing.T) {
	ctx := Vector{{"a", 2}, {"b", 1}}
	d := NewDVV("a", ctx)
	if d.Dot != (Dot{Node: "a", Counter: 3}) {
		t.Fatalf("dot = %v, want (a,3)", d.Dot)
	}
	if ctx.Get("a") != 2 {
		t.Fatal("NewDVV must not mutate the caller's context")
	}
}

func TestNewDVVNilContext(t *testing.T) {
	d := NewDVV("a", nil)
	if d.Dot != (Dot{Node: "a", Counter: 1}) {
		t.Fatalf("dot = %v, want (a,1)", d.Dot)
	}
}

func TestDVVObsoletes(t *testing.T) {
	// Client reads version v1 (written at a), writes v2 with that context:
	// v2 must obsolete v1 but not vice versa.
	v1 := NewDVV("a", nil)
	v2 := NewDVV("b", v1.Context)
	if !v2.Obsoletes(v1) {
		t.Error("v2 (read v1 first) must obsolete v1")
	}
	if v1.Obsoletes(v2) {
		t.Error("v1 must not obsolete v2")
	}
}

func TestDVVConcurrent(t *testing.T) {
	// Two blind writes at different replicas are concurrent.
	v1 := NewDVV("a", nil)
	v2 := NewDVV("b", nil)
	if !v1.ConcurrentWith(v2) {
		t.Error("blind writes at different nodes must be concurrent")
	}
	if v1.ConcurrentWith(v1) {
		t.Error("a version is not concurrent with itself")
	}
}

func TestSiblingsSupersession(t *testing.T) {
	var s Siblings[string]
	v1 := NewDVV("a", nil)
	if n := s.Add(v1, "x"); n != 1 {
		t.Fatalf("after first add: %d siblings, want 1", n)
	}
	// Concurrent blind write: should become a second sibling.
	v2 := NewDVV("b", nil)
	if n := s.Add(v2, "y"); n != 2 {
		t.Fatalf("after concurrent add: %d siblings, want 2", n)
	}
	// Write with full read context: supersedes both.
	v3 := NewDVV("a", s.Context())
	if n := s.Add(v3, "z"); n != 1 {
		t.Fatalf("after contextual add: %d siblings, want 1", n)
	}
	if vals := s.Values(); len(vals) != 1 || vals[0] != "z" {
		t.Fatalf("surviving values = %v, want [z]", vals)
	}
}

func TestSiblingsObsoleteWriteIgnored(t *testing.T) {
	var s Siblings[string]
	v1 := NewDVV("a", nil)
	v2 := NewDVV("a", v1.Context) // supersedes v1
	s.Add(v2, "new")
	if n := s.Add(v1, "old"); n != 1 {
		t.Fatalf("stale write must not create a sibling; got %d", n)
	}
	if vals := s.Values(); vals[0] != "new" {
		t.Fatalf("surviving value = %q, want new", vals[0])
	}
}

// TestSiblingsCoversAgreesWithAdd: Covers answers from a dot alone what
// Add would decide about a version: kept (not covered) or not.
func TestSiblingsCoversAgreesWithAdd(t *testing.T) {
	v1 := NewDVV("a", nil)
	v2 := NewDVV("a", v1.Context)  // supersedes v1
	v3 := NewDVV("b", nil)         // concurrent with both
	v4 := NewDVV("c", v2.Join(v3)) // supersedes all three
	var s Siblings[string]
	s.Add(v2, "two")
	for _, tc := range []struct {
		name    string
		dvv     DVV
		covered bool
	}{
		{"its own dot", v2, true},
		{"a version it obsoletes", v1, true},
		{"a concurrent version", v3, false},
		{"a version that obsoletes it", v4, false},
	} {
		if got := s.Covers(tc.dvv.Dot); got != tc.covered {
			t.Errorf("Covers(%s) = %v, want %v", tc.name, got, tc.covered)
		}
		probe := s
		probe.versions = append([]SiblingEntry[string](nil), s.versions...)
		probe.Add(tc.dvv, "probe")
		kept := false
		for _, e := range probe.versions {
			kept = kept || e.Value == "probe"
		}
		if kept == tc.covered {
			t.Errorf("%s: Add kept it = %v, Covers = %v", tc.name, kept, tc.covered)
		}
	}
	var empty Siblings[string]
	if empty.Covers(v1.Dot) {
		t.Error("an empty set covers nothing")
	}
}

// TestSiblingsHasAndReset: Has is exact dot membership, where Covers also
// counts a dot a sibling's context has seen; Reset empties the set, which
// then takes new versions as a fresh one does.
func TestSiblingsHasAndReset(t *testing.T) {
	v1 := NewDVV("a", nil)
	v2 := NewDVV("a", v1.Context) // supersedes v1
	var s Siblings[string]
	s.Add(v2, "two")
	if !s.Has(v2.Dot) || s.Has(v1.Dot) || !s.Covers(v1.Dot) {
		t.Fatalf("Has(v2) = %v, Has(v1) = %v, Covers(v1) = %v; want true, false, true", s.Has(v2.Dot), s.Has(v1.Dot), s.Covers(v1.Dot))
	}
	s.Reset()
	if s.Len() != 0 || s.Has(v2.Dot) || s.Covers(v1.Dot) {
		t.Fatalf("after Reset: %d versions, Has(v2) = %v", s.Len(), s.Has(v2.Dot))
	}
	s.Add(v1, "one")
	if vs := s.Values(); len(vs) != 1 || vs[0] != "one" || !s.Has(v1.Dot) {
		t.Fatalf("after Reset and Add(v1): %v", vs)
	}
}

// TestSiblingsNoExplosionWithDVV is the A3 ablation's core claim: a client
// that always echoes the read context never produces more than the true
// number of concurrent writers, even when writes interleave at one server.
func TestSiblingsNoExplosionWithDVV(t *testing.T) {
	var s Siblings[int]
	server := "s1"
	// Two clients ping-pong writes through the same server, each reading
	// before writing. With plain per-value vectors clocked by the server
	// this explodes; with DVVs sibling count stays ≤ 2.
	ctxA, ctxB := Vector{}, Vector{}
	for i := 0; i < 50; i++ {
		dA := NewDVV(server, ctxA)
		s.Add(dA, i)
		ctxA = s.Context()
		dB := NewDVV(server, ctxB)
		s.Add(dB, 1000+i)
		ctxB = s.Context()
		if s.Len() > 2 {
			t.Fatalf("iteration %d: %d siblings, want ≤ 2", i, s.Len())
		}
	}
}

func TestDVVJoinCoversBothDots(t *testing.T) {
	v1 := NewDVV("a", nil)
	v2 := NewDVV("b", nil)
	j := v1.Join(v2)
	if j.Get("a") < 1 || j.Get("b") < 1 {
		t.Fatalf("join %v must cover both dots", j)
	}
}
