package crdt

import (
	"fmt"

	"repro/internal/clock"
)

// Op-based (operation-based, "commutative") replication ships operations
// instead of state. The tutorial's contrast: op-based messages are small
// (an increment, not a whole counter) but demand more from the delivery
// layer — exactly-once, and for non-commutative pairs (add/remove of the
// same element) causally ordered delivery. CausalBuffer provides that
// delivery discipline; OpCounter and OpORSet are the payload types used by
// experiment E5 to measure the state-vs-op bandwidth trade.

// Envelope wraps an operation for causal broadcast: the origin replica,
// its per-origin sequence number (1-based, dense), the vector clock of
// operations the origin had applied when it issued this one, and the
// payload.
type Envelope struct {
	Origin string
	Seq    uint64
	Deps   clock.Vector
	Op     any
}

// WireSize estimates the envelope's serialized size, for bandwidth
// accounting; the payload contributes via an optional WireSize method,
// otherwise a fixed 16-byte estimate.
func (e Envelope) WireSize() int {
	n := len(e.Origin) + 8
	n += 16 * len(e.Deps) // id + counter estimate per dep entry
	if s, ok := e.Op.(interface{ WireSize() int }); ok {
		n += s.WireSize()
	} else {
		n += 16
	}
	return n
}

// CausalBuffer implements causal-order, exactly-once delivery for op-based
// CRDTs. Deliver returns the envelopes that became applicable (in a valid
// causal order), buffering the rest until their dependencies arrive.
type CausalBuffer struct {
	applied clock.Vector
	pending []Envelope
}

// NewCausalBuffer returns an empty buffer.
func NewCausalBuffer() *CausalBuffer {
	return &CausalBuffer{applied: clock.Vector{}}
}

// Applied returns the vector of operations applied so far (per origin).
// Use it as the Deps of locally issued operations: later deliveries
// build a new vector and leave the returned one as it is.
func (b *CausalBuffer) Applied() clock.Vector { return b.applied }

// Pending returns how many envelopes are waiting for dependencies.
func (b *CausalBuffer) Pending() int { return len(b.pending) }

func (b *CausalBuffer) deliverable(e Envelope) bool {
	if b.applied.Get(e.Origin)+1 != e.Seq {
		return false // gap or duplicate from the origin
	}
	for _, d := range e.Deps {
		if d.ID == e.Origin {
			continue // the origin's own prefix is covered by Seq
		}
		if b.applied.Get(d.ID) < d.Counter {
			return false
		}
	}
	return true
}

// Deliver offers an envelope. Duplicates (Seq already applied) are
// dropped. The returned slice lists every envelope that became applicable,
// in causal order; the caller must apply them to its CRDT in that order.
func (b *CausalBuffer) Deliver(e Envelope) []Envelope {
	if e.Seq <= b.applied.Get(e.Origin) {
		return nil // duplicate of an applied op
	}
	for _, p := range b.pending {
		if p.Origin == e.Origin && p.Seq == e.Seq {
			return nil // duplicate of a buffered op
		}
	}
	b.pending = append(b.pending, e)
	var ready []Envelope
	progress := true
	for progress {
		progress = false
		for i := 0; i < len(b.pending); i++ {
			p := b.pending[i]
			if !b.deliverable(p) {
				continue
			}
			b.applied = b.applied.With(p.Origin, p.Seq)
			ready = append(ready, p)
			b.pending = append(b.pending[:i], b.pending[i+1:]...)
			progress = true
			i--
		}
	}
	return ready
}

// OpCounter is an op-based PN-counter. Increment/decrement operations
// commute, so OpCounter only needs exactly-once delivery (which
// CausalBuffer also provides); it tolerates any order.
type OpCounter struct {
	value int64
}

// CounterOp is an op-based counter operation.
type CounterOp struct {
	Delta int64
}

// WireSize implements the bandwidth-accounting hook.
func (CounterOp) WireSize() int { return 8 }

// NewOpCounter returns a zeroed counter.
func NewOpCounter() *OpCounter { return &OpCounter{} }

// Apply applies one operation.
func (c *OpCounter) Apply(op CounterOp) { c.value += op.Delta }

// Value returns the current value.
func (c *OpCounter) Value() int64 { return c.value }

// OpORSet is an op-based observed-remove set. Under causal delivery a
// RemoveOp arrives after every AddOp whose tag it names, so applying ops
// in delivery order converges.
type OpORSet[T comparable] struct {
	id   string
	seq  uint64
	tags map[T]map[Tag]struct{}
}

// AddOp adds Elem with the unique Tag issued by the origin.
type AddOp[T comparable] struct {
	Elem T
	Tag  Tag
}

// WireSize implements the bandwidth-accounting hook.
func (a AddOp[T]) WireSize() int { return len(a.Tag.Replica) + 8 + 16 }

// RemoveOp removes the observed Tags of Elem.
type RemoveOp[T comparable] struct {
	Elem T
	Tags []Tag
}

// WireSize implements the bandwidth-accounting hook.
func (r RemoveOp[T]) WireSize() int {
	n := 16
	for _, t := range r.Tags {
		n += len(t.Replica) + 8
	}
	return n
}

// NewOpORSet returns an empty set owned by replica id.
func NewOpORSet[T comparable](id string) *OpORSet[T] {
	return &OpORSet[T]{id: id, tags: make(map[T]map[Tag]struct{})}
}

// Add prepares a local add and returns the op to broadcast (the local
// state is updated by applying it, which Add does).
func (s *OpORSet[T]) Add(v T) AddOp[T] {
	s.seq++
	op := AddOp[T]{Elem: v, Tag: Tag{Replica: s.id, Seq: s.seq}}
	s.Apply(op)
	return op
}

// Remove prepares a local remove of all observed tags and returns the op
// to broadcast. Removing an absent element returns ok=false and no op.
func (s *OpORSet[T]) Remove(v T) (RemoveOp[T], bool) {
	tags := s.tags[v]
	if len(tags) == 0 {
		return RemoveOp[T]{}, false
	}
	op := RemoveOp[T]{Elem: v}
	for t := range tags {
		op.Tags = append(op.Tags, t)
	}
	s.Apply(op)
	return op, true
}

// Apply applies an add or remove operation (local or causally delivered).
func (s *OpORSet[T]) Apply(op any) {
	switch o := op.(type) {
	case AddOp[T]:
		if s.tags[o.Elem] == nil {
			s.tags[o.Elem] = make(map[Tag]struct{})
		}
		s.tags[o.Elem][o.Tag] = struct{}{}
	case RemoveOp[T]:
		for _, t := range o.Tags {
			delete(s.tags[o.Elem], t)
		}
		if len(s.tags[o.Elem]) == 0 {
			delete(s.tags, o.Elem)
		}
	default:
		panic(fmt.Sprintf("crdt: OpORSet.Apply: unknown op %T", op))
	}
}

// Contains reports live membership.
func (s *OpORSet[T]) Contains(v T) bool { return len(s.tags[v]) > 0 }

// Len returns the live element count.
func (s *OpORSet[T]) Len() int { return len(s.tags) }

// Elements returns live members in unspecified order.
func (s *OpORSet[T]) Elements() []T {
	out := make([]T, 0, len(s.tags))
	for v := range s.tags {
		out = append(out, v)
	}
	return out
}
