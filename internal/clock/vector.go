// Package clock implements the logical clock machinery that eventually
// consistent replication depends on: vector clocks, dotted version
// vectors, and hybrid logical clocks.
//
// The tutorial's taxonomy ("Rethinking Eventual Consistency", Bernstein &
// Das, SIGMOD 2013) treats happens-before tracking as the foundation for
// every convergence mechanism stronger than last-writer-wins: version
// vectors detect concurrent updates, dotted version vectors bound sibling
// explosion, and hybrid logical clocks give last-writer-wins timestamps
// that respect causality.
package clock

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Ordering is the result of comparing two vector clocks (or any partially
// ordered timestamps).
type Ordering int

// The four possible relationships between two events' timestamps.
const (
	// Equal means the two clocks are identical.
	Equal Ordering = iota
	// Before means the receiver happens-before the argument.
	Before
	// After means the argument happens-before the receiver.
	After
	// Concurrent means neither dominates: the events are concurrent and,
	// if they wrote the same key, in conflict.
	Concurrent
)

// String implements fmt.Stringer.
func (o Ordering) String() string {
	switch o {
	case Equal:
		return "equal"
	case Before:
		return "before"
	case After:
		return "after"
	case Concurrent:
		return "concurrent"
	default:
		return fmt.Sprintf("Ordering(%d)", int(o))
	}
}

// Entry is one replica's counter in a Vector.
type Entry struct {
	ID      string
	Counter uint64
}

// Vector is a vector clock: for each replica ID, the count of events
// observed from that replica, as entries sorted by ID with no ID twice.
// Absent entries are zero. Vector clocks order events by happens-before
// and, unlike Lamport clocks, detect concurrency.
//
// A Vector is never written once it is shared: one decoded causal
// context is handed from a frame to a coordinator to every replica that
// installs it, all reading the same backing array. So With and Merge
// return a new vector (or one of their operands, unchanged) and write
// into no existing one. The nil Vector is the bottom element; it differs
// from an empty one only in its encoding.
type Vector []Entry

// VectorOf returns the vector holding es: it sorts es by ID in place and
// keeps the larger counter of a repeated ID, reusing es's storage.
func VectorOf(es ...Entry) Vector {
	if !slices.IsSortedFunc(es, byID) {
		slices.SortFunc(es, byID)
	}
	v := Vector(es[:0])
	for _, e := range es {
		if n := len(v); n > 0 && v[n-1].ID == e.ID {
			v[n-1].Counter = max(v[n-1].Counter, e.Counter)
			continue
		}
		v = append(v, e)
	}
	return v
}

func byID(a, b Entry) int { return strings.Compare(a.ID, b.ID) }

// search returns the index of id in v, or where it would be inserted.
func (v Vector) search(id string) (int, bool) {
	return slices.BinarySearchFunc(v, id, func(e Entry, id string) int { return strings.Compare(e.ID, id) })
}

// Get returns the counter for replica id (zero if absent).
func (v Vector) Get(id string) uint64 {
	if i, ok := v.search(id); ok {
		return v[i].Counter
	}
	return 0
}

// With returns a vector equal to v but with id's counter set to n,
// leaving v unchanged: v itself when it already holds exactly that, else
// a new vector. Ticking id is v.With(id, v.Get(id)+1).
func (v Vector) With(id string, n uint64) Vector {
	i, ok := v.search(id)
	if ok && v[i].Counter == n {
		return v
	}
	out := make(Vector, 0, len(v)+1)
	out = append(out, v[:i]...)
	out = append(out, Entry{ID: id, Counter: n})
	if ok {
		i++
	}
	return append(out, v[i:]...)
}

// Merge returns the entry-wise maximum of v and other, leaving both
// unchanged. Merge is the join of the vector-clock lattice: commutative,
// associative, idempotent. When one operand descends the other, it is
// the join and is returned as it is, allocating nothing; the join is nil
// only if both are.
func (v Vector) Merge(other Vector) Vector {
	switch {
	case v.Descends(other) && (v != nil || other == nil):
		return v
	case other.Descends(v) && other != nil:
		return other
	}
	out := make(Vector, 0, len(v)+len(other))
	for i, j := 0, 0; i < len(v) || j < len(other); {
		var id string
		var a, b uint64
		id, a, b, i, j = next(v, other, i, j)
		out = append(out, Entry{ID: id, Counter: max(a, b)})
	}
	return out
}

// next steps a side-by-side walk of v and o to the next ID either holds,
// returning it, its counter in each (zero where absent) and the indices
// past it.
func next(v, o Vector, i, j int) (id string, a, b uint64, i2, j2 int) {
	switch {
	case j == len(o) || i < len(v) && v[i].ID < o[j].ID:
		return v[i].ID, v[i].Counter, 0, i + 1, j
	case i == len(v) || o[j].ID < v[i].ID:
		return o[j].ID, 0, o[j].Counter, i, j + 1
	default:
		return v[i].ID, v[i].Counter, o[j].Counter, i + 1, j + 1
	}
}

// Compare reports the ordering of v relative to other.
func (v Vector) Compare(other Vector) Ordering {
	vLess, oLess := false, false // v < other in some coordinate; other < v in some coordinate
	for i, j := 0, 0; i < len(v) || j < len(other); {
		var a, b uint64
		_, a, b, i, j = next(v, other, i, j)
		if a < b {
			vLess = true
		} else if a > b {
			oLess = true
		}
		if vLess && oLess {
			return Concurrent // both directions witnessed; no need to finish
		}
	}
	switch {
	case vLess:
		return Before
	case oLess:
		return After
	default:
		return Equal
	}
}

// Descends reports whether v dominates or equals other (other ≤ v), i.e.
// every event other has seen, v has seen too.
func (v Vector) Descends(other Vector) bool {
	for i, j := 0, 0; j < len(other); {
		var a, b uint64
		_, a, b, i, j = next(v, other, i, j)
		if a < b {
			return false
		}
	}
	return true
}

// Concurrent reports whether v and other are concurrent.
func (v Vector) Concurrent(other Vector) bool {
	return v.Compare(other) == Concurrent
}

// Sum returns the total event count across all replicas — a cheap scalar
// proxy for "how much has this clock seen", used by read repair to pick a
// candidate when clocks are equal-ranked.
func (v Vector) Sum() uint64 {
	var s uint64
	for _, e := range v {
		s += e.Counter
	}
	return s
}

// String renders the clock in ID order, e.g. {a:1 b:3}.
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d", e.ID, e.Counter)
	}
	b.WriteByte('}')
	return b.String()
}

// MarshalJSON encodes v as the JSON object {"id":counter,...} (null for
// nil), keys in ID order.
func (v Vector) MarshalJSON() ([]byte, error) {
	if v == nil {
		return []byte("null"), nil
	}
	b := []byte{'{'}
	for i, e := range v {
		if i > 0 {
			b = append(b, ',')
		}
		id, _ := json.Marshal(e.ID)
		b = append(append(b, id...), ':')
		b = strconv.AppendUint(b, e.Counter, 10)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON decodes the object MarshalJSON writes, its keys in any
// order.
func (v *Vector) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*v = nil
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return fmt.Errorf("clock: a vector is a JSON object, not %s", b)
	}
	es := []Entry{}
	for dec.More() {
		var e Entry
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		e.ID = tok.(string) // an object key is a string
		if err := dec.Decode(&e.Counter); err != nil {
			return err
		}
		es = append(es, e)
	}
	*v = VectorOf(es...)
	return nil
}
