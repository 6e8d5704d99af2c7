package ring

import (
	"slices"
	"sort"
)

// Epoch is one point in the cluster's membership history: a
// monotonically increasing sequence number paired with the ring it
// produced and, while the epoch's transfer window is open, the previous
// epoch's ring, which writes are dual-applied to. Prev is nil once the
// window settles. Membership changes are totally ordered by Seq, and a
// ring is a pure function of its member set (and zone map), so every
// node that has installed epoch E agrees on placement byte for byte. An
// Epoch is a value: a membership change builds a new one and never
// writes into one already handed out.
type Epoch struct {
	Seq  uint64
	Ring *Ring
	Prev *Ring
}

// RangeN is one arc of the circle, (Start, End] clockwise (wrapping when
// End < Start), whose n-replica preference set changed between two
// rings. Old and New are the full n-owner lists in preference order.
type RangeN struct {
	Start, End uint64
	Old, New   []string
}

// Contains reports whether hash falls in the arc (Start, End].
func (g RangeN) Contains(hash uint64) bool {
	if g.Start < g.End {
		return hash > g.Start && hash <= g.End
	}
	return hash > g.Start || hash <= g.End
}

// Gained reports whether member is a replica of this arc after the
// change but was not before — i.e. member must pull this range.
func (g RangeN) Gained(member string) bool {
	return slices.Contains(g.New, member) && !slices.Contains(g.Old, member)
}

// DiffN returns the arcs whose n-replica preference set differs between
// the old and new rings (n = 1 compares primary owners alone). With
// n-way replication a joiner must receive every arc where it enters the
// preference list (usually as a non-primary replica), which is exactly
// the set of ranges g with g.Gained(joiner). On a leave, every arc's
// Old set that differs contains the leaver somewhere in its walk, so
// survivors know who to pull from.
func DiffN(before, after *Ring, n int) []RangeN {
	// Union of cut points: between consecutive cuts neither ring has a
	// vnode boundary, so the n-owner walk is constant on each arc.
	cuts := make([]uint64, 0, len(before.points)+len(after.points))
	for _, p := range before.points {
		cuts = append(cuts, p.hash)
	}
	for _, p := range after.points {
		cuts = append(cuts, p.hash)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	cuts = dedupeU64(cuts)
	if len(cuts) == 0 {
		return nil
	}
	var out []RangeN
	prev := cuts[len(cuts)-1] // the wrapping arc ends at the first cut
	for _, c := range cuts {
		ob := before.walk(c, n)
		oa := after.walk(c, n)
		if !equalStrs(ob, oa) {
			out = append(out, RangeN{Start: prev, End: c, Old: ob, New: oa})
		}
		prev = c
	}
	return mergeAdjacentN(out)
}

// mergeAdjacentN coalesces consecutive ranges with identical owner sets
// (including across the wrap point).
func mergeAdjacentN(rs []RangeN) []RangeN {
	if len(rs) < 2 {
		return rs
	}
	out := rs[:1]
	for _, g := range rs[1:] {
		last := &out[len(out)-1]
		if last.End == g.Start && equalStrs(last.Old, g.Old) && equalStrs(last.New, g.New) {
			last.End = g.End
			continue
		}
		out = append(out, g)
	}
	if len(out) > 1 {
		first, last := out[0], out[len(out)-1]
		if last.End == first.Start && equalStrs(last.Old, first.Old) && equalStrs(last.New, first.New) {
			out[0].Start = last.Start
			out = out[:len(out)-1]
		}
	}
	return out
}

func equalStrs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
