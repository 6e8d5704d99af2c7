package crdt

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestGSetAddMerge(t *testing.T) {
	a, b := NewGSet[int](), NewGSet[int]()
	a.Add(1)
	a.Add(2)
	b.Add(3)
	a.Merge(b)
	if a.Len() != 3 || !a.Contains(3) {
		t.Fatalf("after merge: %v", SortedInts(a.Elements()))
	}
	b.Merge(a)
	if !a.Equal(b) {
		t.Fatal("replicas diverged")
	}
}

func TestTwoPSetRemoveWinsForever(t *testing.T) {
	s := NewTwoPSet[string]()
	s.Add("x")
	s.Remove("x")
	if s.Contains("x") {
		t.Fatal("removed element still present")
	}
	s.Add("x") // re-add must NOT resurrect (the 2P-Set limitation)
	if s.Contains("x") {
		t.Fatal("2P-Set re-add resurrected a removed element")
	}
}

func TestTwoPSetRemoveRequiresObservedAdd(t *testing.T) {
	s := NewTwoPSet[string]()
	s.Remove("never-added")
	s.Add("never-added")
	if !s.Contains("never-added") {
		t.Fatal("remove of unobserved element should be a no-op")
	}
}

func TestTwoPSetConcurrentAddRemove(t *testing.T) {
	a, b := NewTwoPSet[string](), NewTwoPSet[string]()
	a.Add("x")
	b.Merge(a)
	// Concurrent: a removes x, b re-adds x (already there).
	a.Remove("x")
	a.Merge(b)
	b.Merge(a)
	// Remove wins in a 2P-Set.
	if a.Contains("x") || b.Contains("x") {
		t.Fatal("remove must win in a 2P-Set")
	}
	if !a.Equal(b) {
		t.Fatal("replicas diverged")
	}
}

func TestORSetAddRemove(t *testing.T) {
	s := NewORSet[string]("a")
	s.Add("x")
	if !s.Contains("x") || s.Len() != 1 {
		t.Fatal("add failed")
	}
	s.Remove("x")
	if s.Contains("x") {
		t.Fatal("remove failed")
	}
	if s.TombstoneCount() != 1 {
		t.Fatalf("tombstones = %d, want 1", s.TombstoneCount())
	}
}

func TestORSetReAddWorks(t *testing.T) {
	// Unlike 2P-Set, OR-Set re-add after remove resurrects the element.
	s := NewORSet[string]("a")
	s.Add("x")
	s.Remove("x")
	s.Add("x")
	if !s.Contains("x") {
		t.Fatal("OR-Set re-add must work")
	}
}

func TestORSetAddWinsOverConcurrentRemove(t *testing.T) {
	// The shopping-cart scenario: replica a removes x while replica b
	// concurrently adds x again. Add must win.
	a := NewORSet[string]("a")
	a.Add("x")
	b := a.Fork("b")

	a.Remove("x")
	b.Add("x") // concurrent re-add with a new tag

	a.Merge(b)
	b.Merge(a)
	if !a.Contains("x") || !b.Contains("x") {
		t.Fatal("concurrent add must win over remove in OR-Set")
	}
	if !a.Equal(b) {
		t.Fatal("replicas diverged")
	}
}

func TestORSetRemoveOnlyObservedTags(t *testing.T) {
	a := NewORSet[string]("a")
	b := NewORSet[string]("b")
	a.Add("x")
	b.Add("x") // never seen by a
	a.Remove("x")
	a.Merge(b)
	// a removed only its own observed tag; b's add survives.
	if !a.Contains("x") {
		t.Fatal("unobserved add must survive remove")
	}
}

func TestORSetMergeIdempotentAndCommutative(t *testing.T) {
	genSet := func(r *rand.Rand, id string) *ORSet[int] {
		s := NewORSet[int](id)
		for i := 0; i < 10; i++ {
			v := r.Intn(5)
			if r.Intn(3) == 0 {
				s.Remove(v)
			} else {
				s.Add(v)
			}
		}
		return s
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(genSet(r, "a"))
			args[1] = reflect.ValueOf(genSet(r, "b"))
		},
	}
	prop := func(a, b *ORSet[int]) bool {
		ab := a.Copy()
		ab.Merge(b)
		ba := b.Copy()
		ba.Merge(a)
		if !sameMembers(ab.Elements(), ba.Elements()) {
			return false
		}
		abab := ab.Copy()
		abab.Merge(ab)
		return abab.Equal(ab)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func sameMembers(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[int]bool, len(a))
	for _, v := range a {
		seen[v] = true
	}
	for _, v := range b {
		if !seen[v] {
			return false
		}
	}
	return true
}

// TestORSetQuickConvergence: random local op schedules at three replicas,
// then full pairwise merges in random order; all replicas must agree.
func TestORSetQuickConvergence(t *testing.T) {
	type step struct {
		replica int
		elem    int
		remove  bool
	}
	cfg := &quick.Config{
		MaxCount: 150,
		Values: func(args []reflect.Value, r *rand.Rand) {
			n := 1 + r.Intn(50)
			steps := make([]step, n)
			for i := range steps {
				steps[i] = step{replica: r.Intn(3), elem: r.Intn(6), remove: r.Intn(3) == 0}
			}
			args[0] = reflect.ValueOf(steps)
			args[1] = reflect.ValueOf(r.Int63())
		},
	}
	prop := func(steps []step, seed int64) bool {
		sets := []*ORSet[int]{NewORSet[int]("a"), NewORSet[int]("b"), NewORSet[int]("c")}
		for _, s := range steps {
			if s.remove {
				sets[s.replica].Remove(s.elem)
			} else {
				sets[s.replica].Add(s.elem)
			}
		}
		r := rand.New(rand.NewSource(seed))
		// Two full rounds of pairwise merges in random order guarantee
		// every state reaches every replica.
		for round := 0; round < 2; round++ {
			order := r.Perm(3)
			for _, i := range order {
				for _, j := range r.Perm(3) {
					if i != j {
						sets[i].Merge(sets[j])
					}
				}
			}
		}
		return sets[0].Equal(sets[1]) && sets[1].Equal(sets[2]) &&
			sameMembers(sets[0].Elements(), sets[2].Elements())
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestORSetForkDoesNotShareTags(t *testing.T) {
	a := NewORSet[string]("a")
	a.Add("x")
	b := a.Fork("b")
	tagA := a.Add("y")
	tagB := b.Add("z")
	if tagA == tagB {
		t.Fatal("forked replicas issued identical tags")
	}
	if tagB.Replica != "b" {
		t.Fatalf("fork kept old replica id: %v", tagB)
	}
}

func TestORSetWireSizeGrowsWithTombstones(t *testing.T) {
	s := NewORSet[int]("a")
	s.Add(1)
	s.Remove(1)
	oneTombstone := s.WireSize()
	s.Add(1)
	s.Remove(1)
	if s.WireSize() <= oneTombstone {
		t.Fatal("tombstones must accumulate in wire size")
	}
	if s.TombstoneCount() != 2 {
		t.Fatalf("tombstones = %d, want 2", s.TombstoneCount())
	}
}
