// Package geo carries the zone vocabulary of the geo-replication
// subsystem: SLA tiers (strong / bounded-staleness / eventual), which
// travel on each server request, and zone spec parsing for flags. The
// quorum node plans a tiered read, and documents what each tier costs
// (quorum.Node.Plan); the Pileus-style utility picker is internal/sla,
// run in simulation by E10.
package geo

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Kind is an SLA consistency tier.
type Kind uint8

// The tiers, strongest first. Wire values are pinned: they travel in
// server.Request.SLA.
const (
	Strong Kind = iota
	Bounded
	Eventual
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Strong:
		return "strong"
	case Bounded:
		return "bounded"
	case Eventual:
		return "eventual"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Tier is a parsed SLA tier: a kind plus, for Bounded, the staleness
// bound the read tolerates.
type Tier struct {
	Kind  Kind
	Bound time.Duration
}

// String renders the tier in ParseTier's syntax.
func (t Tier) String() string {
	if t.Kind == Bounded {
		return fmt.Sprintf("bounded:%s", t.Bound)
	}
	return t.Kind.String()
}

// ParseTier parses an SLA tier flag: "strong", "eventual", or
// "bounded:<duration>" (e.g. "bounded:500ms").
func ParseTier(s string) (Tier, error) {
	switch {
	case s == "strong":
		return Tier{Kind: Strong}, nil
	case s == "eventual":
		return Tier{Kind: Eventual}, nil
	case strings.HasPrefix(s, "bounded:"):
		d, err := time.ParseDuration(strings.TrimPrefix(s, "bounded:"))
		if err != nil {
			return Tier{}, fmt.Errorf("geo: bad staleness bound in %q: %v", s, err)
		}
		if d <= 0 {
			return Tier{}, fmt.Errorf("geo: staleness bound must be positive in %q", s)
		}
		return Tier{Kind: Bounded, Bound: d}, nil
	}
	return Tier{}, fmt.Errorf("geo: unknown SLA tier %q (want strong, eventual, or bounded:<duration>)", s)
}

// ParseZoneSpec parses a node-to-zone assignment flag of the form
// "node1=us,node2=eu,node3=ap".
func ParseZoneSpec(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		eq := strings.IndexByte(pair, '=')
		if eq <= 0 || eq == len(pair)-1 {
			return nil, fmt.Errorf("geo: bad zone assignment %q (want node=zone)", pair)
		}
		node, zone := pair[:eq], pair[eq+1:]
		if _, dup := out[node]; dup {
			return nil, fmt.Errorf("geo: node %q assigned twice", node)
		}
		out[node] = zone
	}
	return out, nil
}

// FormatZoneSpec renders a zone map in ParseZoneSpec's syntax, nodes
// sorted for determinism.
func FormatZoneSpec(zones map[string]string) string {
	nodes := make([]string, 0, len(zones))
	for n := range zones {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	parts := make([]string, len(nodes))
	for i, n := range nodes {
		parts[i] = n + "=" + zones[n]
	}
	return strings.Join(parts, ",")
}

// AssignRoundRobin spreads ids across zones round-robin — the ecctl
// `up --zones us,eu,ap` assignment.
func AssignRoundRobin(ids, zones []string) map[string]string {
	if len(zones) == 0 {
		return nil
	}
	out := make(map[string]string, len(ids))
	for i, id := range ids {
		out[id] = zones[i%len(zones)]
	}
	return out
}
