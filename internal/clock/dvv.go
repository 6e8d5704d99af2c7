package clock

import "fmt"

// Dot identifies a single write event: the n-th event produced by replica
// Node. Dots are the building block of dotted version vectors.
type Dot struct {
	Node    string
	Counter uint64
}

// String implements fmt.Stringer.
func (d Dot) String() string { return fmt.Sprintf("(%s,%d)", d.Node, d.Counter) }

// DVV is a dotted version vector: a causal context (a plain version
// vector summarizing everything this value's writer had seen) plus the
// single dot of the write itself.
//
// Plain version vectors used per-value suffer "sibling explosion": a
// client that writes without reading first appears concurrent with
// everything, so servers accumulate spurious siblings. DVVs fix this by
// separating the event (the dot) from the context (what the writer knew),
// allowing exact supersession checks. See Preguiça et al., "Dotted
// Version Vectors" — cited in the tutorial's convergence discussion.
type DVV struct {
	Dot     Dot
	Context Vector
}

// NewDVV stamps a new write performed at node, which had observed context
// (typically the merge of the contexts the client read). It advances the
// node's counter within the context and returns the resulting DVV, whose
// context is a new vector: context itself is left as it was.
func NewDVV(node string, context Vector) DVV {
	n := context.Get(node) + 1
	return DVV{Dot: Dot{Node: node, Counter: n}, Context: context.With(node, n)}
}

// MintDVV stamps a new write whose dot may lie beyond the context — the
// "dotted" construction proper. context is what the writer causally
// observed and is NOT extended with the new dot; the dot counter is
// max(context[node], minCounter)+1, where minCounter is the caller's
// per-key mint floor guaranteeing uniqueness even when the writer has not
// observed its own earlier writes yet (e.g. a coordinator whose local
// apply is still in flight). Two such blind writes stay concurrent
// instead of one falsely superseding the other. The DVV holds context
// itself (an empty vector if it is nil): no vector is written once shared.
func MintDVV(node string, context Vector, minCounter uint64) DVV {
	if context == nil {
		context = Vector{}
	}
	c := max(context.Get(node), minCounter)
	return DVV{Dot: Dot{Node: node, Counter: c + 1}, Context: context}
}

// Obsoletes reports whether v's context has seen other's dot — i.e. the
// write identified by other happened-before v and is superseded by it.
func (v DVV) Obsoletes(other DVV) bool {
	return v.Context.Get(other.Dot.Node) >= other.Dot.Counter
}

// ConcurrentWith reports whether neither write supersedes the other.
func (v DVV) ConcurrentWith(other DVV) bool {
	return !v.Obsoletes(other) && !other.Obsoletes(v)
}

// Join returns the merge of both causal contexts including both dots —
// the context a reader holds after observing both versions. It is never
// nil, and neither operand changes.
func (v DVV) Join(other DVV) Vector {
	out := v.Context.Merge(other.Context).withDot(v.Dot).withDot(other.Dot)
	if out == nil {
		out = Vector{}
	}
	return out
}

// withDot returns v raised to cover dot d.
func (v Vector) withDot(d Dot) Vector {
	if v.Get(d.Node) < d.Counter {
		return v.With(d.Node, d.Counter)
	}
	return v
}

// String implements fmt.Stringer.
func (v DVV) String() string {
	return fmt.Sprintf("%s@%s", v.Dot, v.Context)
}

// SiblingEntry is one concurrent version of a key with its DVV: what a
// sibling set holds and what replication layers ship and store.
type SiblingEntry[T any] struct {
	DVV   DVV
	Value T
}

// AddSibling applies DVV supersession to the sibling list es in place:
// it drops every version dvv obsoletes and appends (dvv, value) unless
// a survivor obsoletes it or already carries its dot (idempotent
// re-delivery). It returns the surviving list, which reuses es's backing
// array, and whether the set changed. This is the whole of
// Siblings.Add, exposed for layers that keep the list themselves.
func AddSibling[T any](es []SiblingEntry[T], dvv DVV, value T) ([]SiblingEntry[T], bool) {
	kept := es[:0]
	obsoleted := false
	for _, have := range es {
		if have.DVV.Dot == dvv.Dot {
			// The same write re-delivered: keep the existing copy.
			kept = append(kept, have)
			obsoleted = true
			continue
		}
		if dvv.Obsoletes(have.DVV) {
			continue // new write supersedes this sibling
		}
		if have.DVV.Obsoletes(dvv) {
			obsoleted = true
		}
		kept = append(kept, have)
	}
	dropped := len(kept) < len(es)
	clear(es[len(kept):]) // release the dropped versions' values
	if !obsoleted {
		kept = append(kept, SiblingEntry[T]{DVV: dvv, Value: value})
	}
	return kept, dropped || !obsoleted
}

// Siblings maintains the set of concurrent versions of one key under DVV
// semantics: adding a version drops every existing version it obsoletes
// and is itself dropped if obsoleted.
type Siblings[T any] struct {
	versions []SiblingEntry[T]
}

// Add inserts a version, applying DVV supersession. Adding a version
// whose dot is already present is a no-op (idempotent re-delivery). It
// returns the number of surviving siblings.
func (s *Siblings[T]) Add(dvv DVV, value T) int {
	s.versions, _ = AddSibling(s.versions, dvv, value)
	return len(s.versions)
}

// Covers reports whether the set already accounts for the write with
// dot d: a sibling carries d or its context has seen d, so Add would not
// keep a version with that dot. Supersession reads nothing of the other
// version but its dot, so neither a value nor a context is needed: a
// reader holding only a peer's dots learns from it whether the peer has
// a version the set lacks.
func (s *Siblings[T]) Covers(d Dot) bool {
	for _, have := range s.versions {
		if have.DVV.Dot == d || have.DVV.Context.Get(d.Node) >= d.Counter {
			return true
		}
	}
	return false
}

// Has reports whether a sibling carries dot d.
func (s *Siblings[T]) Has(d Dot) bool {
	for _, have := range s.versions {
		if have.DVV.Dot == d {
			return true
		}
	}
	return false
}

// Reset empties the set, keeping its storage for the next Adds.
func (s *Siblings[T]) Reset() {
	clear(s.versions)
	s.versions = s.versions[:0]
}

// Values returns the current sibling values in insertion order.
func (s *Siblings[T]) Values() []T {
	out := make([]T, len(s.versions))
	for i, e := range s.versions {
		out[i] = e.Value
	}
	return out
}

// Context returns the merged causal context of all siblings — what a
// client must echo back on its next write to supersede them all. It is
// never nil; it may be a sibling's own context, which nothing writes.
func (s *Siblings[T]) Context() Vector {
	ctx := Vector{}
	for _, e := range s.versions {
		ctx = ctx.Merge(e.DVV.Context).withDot(e.DVV.Dot)
	}
	return ctx
}

// Len returns the number of surviving siblings.
func (s *Siblings[T]) Len() int { return len(s.versions) }

// Entries returns a copy of the surviving (DVV, value) pairs in insertion
// order.
func (s *Siblings[T]) Entries() []SiblingEntry[T] {
	return append(make([]SiblingEntry[T], 0, len(s.versions)), s.versions...)
}
