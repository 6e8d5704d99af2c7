// Package ring implements consistent hashing with virtual nodes — the
// partitioning layer under the networked cluster. Each physical node
// projects VirtualNodes points onto a 64-bit hash circle; a key is owned
// by the first point clockwise of its hash, and its N replicas are the
// next N distinct physical nodes along the circle (Dynamo's preference
// list). Virtual nodes smooth the load distribution and, crucially for
// elasticity, make membership changes local: when a node joins or
// leaves, only ~K/n of the keyspace changes hands, and DiffN names
// exactly the ranges whose replica sets changed, so the elasticity
// transfer moves the churn instead of the whole keyspace.
//
// Placement is a pure function of the member set: every process that
// knows the same members computes the identical ring, so there is no
// placement metadata to replicate. An Epoch pairs a ring with its
// sequence number in the cluster's membership history.
package ring

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
)

// DefaultVirtualNodes is the vnode count per physical node. 128 keeps
// the max/mean load ratio near 1.1 for small clusters while the full
// ring (n·128 points) still sorts and searches in microseconds.
const DefaultVirtualNodes = 128

// point is one virtual node: a position on the circle owned by a node.
type point struct {
	hash uint64
	node string
}

// Ring is an immutable consistent-hash ring over a member set. Build
// one with New; derive changed rings with Join/Leave (the receiver is
// never mutated, so a Ring can be shared without locking and old
// placements stay queryable for rebalancing diffs).
type Ring struct {
	vnodes  int
	members []string          // sorted, deduped: the first half of cycle
	cycle   []string          // members twice over, so that each rotation is a slice of it
	points  []point           // sorted by hash
	zones   map[string]string // member -> zone; nil/uniform means zone-unaware
	// walks holds, for each point, the full distinct walk starting there
	// (zone-spread on a zoned ring), len(members) entries per point, in
	// point order: walks[i*len(members):][:len(members)] starts at
	// points[i]. A key's walk is constant between two points, so every
	// walk the ring can answer is one of these, computed once (see
	// distinctWalks) and handed out shared.
	walks []string
}

// New builds a ring over members with vnodes virtual nodes each
// (DefaultVirtualNodes if vnodes <= 0). Member order does not matter:
// the ring is a pure function of the member set.
func New(members []string, vnodes int) *Ring {
	return NewZoned(members, vnodes, nil)
}

// NewZoned builds a ring whose replica walks are zone-aware: the
// clockwise walk is re-ordered round-robin across zones (in the order
// zones first appear along the circle), so the N replicas of any key
// span min(N, zones) distinct zones — rack-aware placement. The first
// member of the walk (the key's Owner) is unchanged, and vnode
// positions are untouched, so a zoned ring agrees with an unzoned one
// on primary ownership and on the wire contract. Members absent from
// zones group under the empty zone. Like New, the result is a pure
// function of (member set, zone map).
func NewZoned(members []string, vnodes int, zones map[string]string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	ms := append([]string(nil), members...)
	sort.Strings(ms)
	ms = dedupe(ms)
	cycle := append(ms[:len(ms):len(ms)], ms...)
	r := &Ring{vnodes: vnodes, members: cycle[:len(ms):len(ms)], cycle: cycle}
	if len(zones) > 0 {
		r.zones = make(map[string]string, len(zones))
		for m, z := range zones {
			r.zones[m] = z
		}
	}
	r.points = make([]point, 0, len(ms)*vnodes)
	for _, m := range ms {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, point{hash: vnodeHash(m, i), node: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.node < b.node // total order even on (astronomically rare) hash ties
	})
	r.walks = distinctWalks(r.points, len(ms))
	if len(r.zones) != 0 {
		for i := 0; i < len(r.walks); i += len(ms) {
			w := r.walks[i : i+len(ms)]
			copy(w, zoneSpread(w, r.zones))
		}
	}
	return r
}

// distinctWalks returns the clockwise walk of m distinct members from
// every point, flattened in point order. The walk from point i is that
// point's member followed by the walk from point i+1 with the member
// taken out, so one pass backwards around the circle derives them all
// from the last point's, walked out in full: points × members steps,
// not points × the points a walk crosses.
func distinctWalks(points []point, m int) []string {
	if len(points) == 0 {
		return nil
	}
	walks := make([]string, len(points)*m)
	last := walks[(len(points)-1)*m:]
	k := 0
	for i := len(points) - 1; k < m; i = (i + 1) % len(points) {
		if node := points[i].node; !slices.Contains(last[:k], node) {
			last[k] = node
			k++
		}
	}
	for i := len(points) - 2; i >= 0; i-- {
		w, next := walks[i*m:(i+1)*m], walks[(i+1)*m:(i+2)*m]
		w[0] = points[i].node
		k := 1
		for _, node := range next {
			if node != w[0] {
				w[k] = node
				k++
			}
		}
	}
	return walks
}

// vnodeHash positions virtual node i of member m on the circle. The
// preimage ("m#" + i as 4 LE bytes, fnv64a, mix64 finalizer) is stable
// across processes and releases — placement agreement depends on it —
// so it is part of the wire contract.
func vnodeHash(m string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(m))
	h.Write([]byte{'#'})
	var buf [4]byte
	buf[0] = byte(i)
	buf[1] = byte(i >> 8)
	buf[2] = byte(i >> 16)
	buf[3] = byte(i >> 24)
	h.Write(buf[:])
	return mix64(h.Sum64())
}

// KeyHash positions a key on the circle: fnv64a of the key, inlined so
// that a lookup allocates nothing, then the mix64 finalizer.
func KeyHash(key string) uint64 {
	h := uint64(14695981039346656037) // fnv64a offset basis
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211 // fnv64a prime
	}
	return mix64(h)
}

// mix64 is the MurmurHash3/SplitMix64 finalizer. Raw FNV-1a output
// clusters visibly on the circle for short similar preimages (measured:
// a 28%/2% ownership split at 128 vnodes); the finalizer's avalanche
// restores uniformity. Like the preimage, it is part of the placement
// contract.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func dedupe(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// Members returns the member set (sorted; do not mutate).
func (r *Ring) Members() []string { return r.members }

// Zones returns the member -> zone map (nil on a zone-unaware ring; do
// not mutate).
func (r *Ring) Zones() map[string]string { return r.zones }

// ZoneOf returns member's zone ("" when unknown or zone-unaware).
func (r *Ring) ZoneOf(member string) string { return r.zones[member] }

// Size returns the number of physical members.
func (r *Ring) Size() int { return len(r.members) }

// successorIdx returns the index of the first point at or clockwise of
// hash (wrapping).
func (r *Ring) successorIdx(hash uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= hash })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Owner returns the member owning key (the first vnode clockwise of its
// hash). Empty string on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.successorIdx(KeyHash(key))].node
}

// Sequence returns the full ordered walk of distinct members starting
// at key's position: the first N entries are the key's replicas, the
// rest its sloppy-quorum fallbacks.
//
// The result is shared by every lookup that lands between the same two
// points and must not be written. Its capacity is its length, so an
// append copies it.
func (r *Ring) Sequence(key string) []string {
	return r.walk(KeyHash(key), len(r.members))
}

// Rotation returns the members in sorted order from the i-th (mod Size)
// on, wrapping round to the first: a walk of every member that ignores the
// points. Like Sequence's, the result is shared and must not be written.
func (r *Ring) Rotation(i int) []string {
	m := len(r.members)
	if m == 0 {
		return nil
	}
	i %= m
	return r.cycle[i : i+m : i+m]
}

// Replicas returns the n distinct members responsible for key, in
// preference order (all members if n exceeds the ring size). Like
// Sequence's, the result is shared and must not be written.
func (r *Ring) Replicas(key string, n int) []string {
	return r.walk(KeyHash(key), n)
}

// walk returns the first n (at most all) distinct members clockwise from
// hash. On a zoned ring the full distinct walk is re-ordered round-robin
// across zones (zones ordered by first appearance, members within a zone
// in circle order) before it is cut to n, so a prefix of any length
// spans as many zones as it can while walk[0], the Owner, stays the
// first clockwise member.
func (r *Ring) walk(hash uint64, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	m := len(r.members)
	n = min(n, m)
	i := r.successorIdx(hash) * m
	return r.walks[i : i+n : i+n]
}

// zoneSpread interleaves a clockwise member walk round-robin by zone:
// zones in order of first appearance, pass k taking the k-th member of
// each zone. seq[0] is always preserved (its zone appears first). A
// single-zone walk comes back unchanged, so uniform clusters behave
// exactly like unzoned ones.
func zoneSpread(seq []string, zones map[string]string) []string {
	order := make([]string, 0, 4)
	byZone := make(map[string][]string, 4)
	for _, m := range seq {
		z := zones[m]
		if _, ok := byZone[z]; !ok {
			order = append(order, z)
		}
		byZone[z] = append(byZone[z], m)
	}
	if len(order) < 2 {
		return seq
	}
	out := make([]string, 0, len(seq))
	for i := 0; len(out) < len(seq); i++ {
		for _, z := range order {
			if g := byZone[z]; i < len(g) {
				out = append(out, g[i])
			}
		}
	}
	return out
}

// Join returns a new ring with member added (the receiver is unchanged;
// adding an existing member returns an equivalent ring). The zone map
// carries over; the joiner lands in the empty zone unless JoinZone is
// used.
func (r *Ring) Join(member string) *Ring {
	return NewZoned(append(append([]string(nil), r.members...), member), r.vnodes, r.zones)
}

// JoinZone returns a new ring with member added in zone.
func (r *Ring) JoinZone(member, zone string) *Ring {
	zs := make(map[string]string, len(r.zones)+1)
	for m, z := range r.zones {
		zs[m] = z
	}
	if zone != "" {
		zs[member] = zone
	}
	return NewZoned(append(append([]string(nil), r.members...), member), r.vnodes, zs)
}

// Leave returns a new ring with member removed (the receiver is
// unchanged; removing an absent member returns an equivalent ring).
func (r *Ring) Leave(member string) *Ring {
	ms := make([]string, 0, len(r.members))
	for _, m := range r.members {
		if m != member {
			ms = append(ms, m)
		}
	}
	zs := r.zones
	if _, ok := zs[member]; ok {
		zs = make(map[string]string, len(r.zones))
		for m, z := range r.zones {
			if m != member {
				zs[m] = z
			}
		}
	}
	return NewZoned(ms, r.vnodes, zs)
}

func dedupeU64(sorted []uint64) []uint64 {
	out := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Load returns, per member, the fraction of the circle it owns —
// diagnostic for vnode balance (1/n each is perfect).
func (r *Ring) Load() map[string]float64 {
	out := make(map[string]float64, len(r.members))
	if len(r.points) == 0 {
		return out
	}
	prev := r.points[len(r.points)-1].hash
	for _, p := range r.points {
		arc := p.hash - prev // uint64 wrap-around gives the circular distance
		out[p.node] += float64(arc) / (1 << 64)
		prev = p.hash
	}
	return out
}

// String renders a compact summary.
func (r *Ring) String() string {
	return fmt.Sprintf("ring{%d members, %d vnodes each}", len(r.members), r.vnodes)
}
