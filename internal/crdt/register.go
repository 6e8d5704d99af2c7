package crdt

import (
	"fmt"

	"repro/internal/clock"
)

// LWWRegister is a last-writer-wins register ordered by hybrid logical
// clock timestamps (Thomas write rule). It converges by discarding all but
// the highest-timestamped write: cheap and simple, at the cost of silently
// losing concurrent updates — the anomaly experiment E6 quantifies.
type LWWRegister[T any] struct {
	value T
	ts    clock.HLCTimestamp
	set   bool
}

// NewLWWRegister returns an empty register.
func NewLWWRegister[T any]() *LWWRegister[T] { return &LWWRegister[T]{} }

// Set writes value at timestamp ts. Stale writes (ts not after the current
// timestamp) are ignored; Set reports whether the write took effect.
func (r *LWWRegister[T]) Set(value T, ts clock.HLCTimestamp) bool {
	if r.set && !r.ts.Before(ts) {
		return false
	}
	r.value, r.ts, r.set = value, ts, true
	return true
}

// Get returns the current value; ok is false if never written.
func (r *LWWRegister[T]) Get() (value T, ok bool) { return r.value, r.set }

// Timestamp returns the timestamp of the winning write.
func (r *LWWRegister[T]) Timestamp() clock.HLCTimestamp { return r.ts }

// Merge joins other into r (the higher timestamp wins).
func (r *LWWRegister[T]) Merge(other *LWWRegister[T]) {
	if other.set {
		r.Set(other.value, other.ts)
	}
}

// Copy returns a copy.
func (r *LWWRegister[T]) Copy() *LWWRegister[T] {
	out := *r
	return &out
}

// String implements fmt.Stringer.
func (r *LWWRegister[T]) String() string {
	if !r.set {
		return "LWW(unset)"
	}
	return fmt.Sprintf("LWW(%v@%s)", r.value, r.ts)
}

// MVVersion is one concurrent version held by an MVRegister.
type MVVersion[T any] struct {
	Value T
	Clock clock.Vector
}

// MVRegister is a multi-value register: writes are stamped with vector
// clocks; merge keeps every maximal (mutually concurrent) version, so
// concurrent writes surface as siblings for the application to resolve —
// the Dynamo alternative to LWW that loses nothing but pushes conflict
// resolution up the stack.
type MVRegister[T any] struct {
	id       string
	versions []MVVersion[T]
}

// NewMVRegister returns an empty register owned by replica id.
func NewMVRegister[T any](id string) *MVRegister[T] {
	return &MVRegister[T]{id: id}
}

// Set overwrites all currently visible versions: the new write's clock
// dominates the merge of their clocks, so after propagation it supersedes
// them everywhere.
func (r *MVRegister[T]) Set(value T) {
	vc := clock.Vector{}
	for _, v := range r.versions {
		vc = vc.Merge(v.Clock)
	}
	vc = vc.With(r.id, vc.Get(r.id)+1)
	r.versions = []MVVersion[T]{{Value: value, Clock: vc}}
}

// Get returns the current siblings (more than one after concurrent
// writes).
func (r *MVRegister[T]) Get() []T {
	out := make([]T, len(r.versions))
	for i, v := range r.versions {
		out[i] = v.Value
	}
	return out
}

// Versions returns the siblings with their clocks.
func (r *MVRegister[T]) Versions() []MVVersion[T] {
	return append([]MVVersion[T](nil), r.versions...)
}

// Merge joins other into r, keeping only maximal versions.
func (r *MVRegister[T]) Merge(other *MVRegister[T]) {
	candidates := append(r.versions, other.versions...)
	var keep []MVVersion[T]
	for i, c := range candidates {
		dominated := false
		for j, d := range candidates {
			if i == j {
				continue
			}
			switch c.Clock.Compare(d.Clock) {
			case clock.Before:
				dominated = true
			case clock.Equal:
				// Keep only the first of identical versions.
				if j < i {
					dominated = true
				}
			}
			if dominated {
				break
			}
		}
		if !dominated {
			keep = append(keep, c)
		}
	}
	r.versions = keep
}

// Copy returns a copy with the same owner id. The versions' clocks are
// shared: a vector is never written once shared.
func (r *MVRegister[T]) Copy() *MVRegister[T] {
	return &MVRegister[T]{id: r.id, versions: r.Versions()}
}

// Siblings returns how many concurrent versions the register holds.
func (r *MVRegister[T]) Siblings() int { return len(r.versions) }
