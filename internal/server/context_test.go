package server

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
)

// Tests of the quorum model's causal context, which travels with the
// client: a node keeps none for its clients, so what a put supersedes
// depends only on what its client read or wrote, never on the node it
// went through.

// siblingsOf reads key through s with a fresh client and returns its
// values, sorted.
func siblingsOf(t *testing.T, s *Server, key string) []string {
	t.Helper()
	vals, err := dialNode(t, s, "reader").GetSiblings(key)
	if err != nil {
		t.Fatalf("read %s: %v", key, err)
	}
	got := make([]string, len(vals))
	for i, v := range vals {
		got[i] = string(v)
	}
	slices.Sort(got)
	return got
}

// TestBlindWritersLeaveSiblings: two clients, each on its own
// connection, put one key without reading it. Neither saw the other's
// write, so both values stay, as siblings, whichever nodes the puts go
// through and whether a node restarted between them.
func TestBlindWritersLeaveSiblings(t *testing.T) {
	cl := bootCluster(t, spec{seed: 2000, heartbeat: fastBeat, durable: true, ckpt: -1})
	srvs := cl.srvs
	for _, tc := range []struct {
		name    string
		first   int
		between func()
		second  int
	}{
		{"through one node", 0, nil, 0},
		{"through two nodes", 0, nil, 1},
		{"across a restart of the node", 0, func() { cl.restart(0) }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			key := "blind " + tc.name
			if err := dialNode(t, srvs[tc.first], "writer-a").Put(key, []byte("a")); err != nil {
				t.Fatal(err)
			}
			if tc.between != nil {
				tc.between()
			}
			if err := dialNode(t, srvs[tc.second], "writer-b").Put(key, []byte("b")); err != nil {
				t.Fatal(err)
			}
			if got := siblingsOf(t, srvs[2], key); !slices.Equal(got, []string{"a", "b"}) {
				t.Fatalf("siblings = %q, want [a b]: a blind put superseded a write it never saw", got)
			}
		})
	}
}

// TestReadModifyWriteAcrossNodes: an application reads a key through
// one node and writes it, with the context it read, through another.
// The write supersedes every version it read, siblings included, and
// leaves no sibling of its own.
func TestReadModifyWriteAcrossNodes(t *testing.T) {
	srvs := bootCluster(t, spec{model: "quorum", seed: 1000, heartbeat: fastBeat}).srvs
	const key = "rmw"
	for i, v := range []string{"a", "b"} { // two blind writers: two siblings
		if err := dialNode(t, srvs[i], "writer").Put(key, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	read := dialNode(t, srvs[0], "app-on-node0")
	vals, ctx, err := read.GetCtx(key)
	if err != nil || len(vals) != 2 || len(ctx) == 0 {
		t.Fatalf("GetCtx = %d values, %d context bytes, %v; want 2 values and a context", len(vals), len(ctx), err)
	}
	ctx2, err := dialNode(t, srvs[1], "app-on-node1").PutCtx(key, []byte("merged"), ctx)
	if err != nil || len(ctx2) == 0 {
		t.Fatalf("PutCtx: %d context bytes, %v", len(ctx2), err)
	}
	for _, s := range srvs {
		if got := siblingsOf(t, s, key); !slices.Equal(got, []string{"merged"}) {
			t.Fatalf("read through %s = %q, want [merged]", s.ID(), got)
		}
	}
}

// TestDrainingNodeRefusesWrites: a node draining for decommission
// refuses its clients' writes with the typed redirect, and still serves
// reads.
func TestDrainingNodeRefusesWrites(t *testing.T) {
	s := bootCluster(t, spec{n: 4, seed: 2000, heartbeat: fastBeat, durable: true, ckpt: -1,
		config: func(c *Config) {
			// Slow enough that the leave's window stays open for the whole
			// test: ~75 KiB for the survivors to pull behind a 2 KiB/s
			// bucket.
			c.TransferRate = 2 << 10
			c.TransferBatch = 1 << 10
		}}).srvs[3]
	c := dialNode(t, s, "cli")
	pad := bytes.Repeat([]byte("x"), 1<<10)
	for i := 0; i < 100; i++ {
		if err := c.Put(fmt.Sprintf("seed%03d", i), pad); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.Decommission(); err != nil {
		t.Fatal(err)
	}
	for _, write := range []func() error{
		func() error { return c.Put("k", []byte("w")) },
		func() error { return c.Delete("k") },
	} {
		var noe *NotOwnerError
		if err := write(); !errors.As(err, &noe) || noe.State != stateDraining || noe.Node != "node3" {
			t.Fatalf("write through a draining node = %v, want a NotOwnerError from draining node3", err)
		}
	}
	if v, found, err := c.Get("k"); err != nil || !found || string(v) != "v" {
		t.Fatalf("get through a draining node = %q/%v/%v, want v", v, found, err)
	}
	if _, st := s.qnode.State(); st != stateDraining {
		t.Fatalf("node3 is %s before the checks ended; lower TransferRate", st)
	}
}

// TestOneClientKeepsEachKeysContext: goroutines sharing one client each
// write their own key over and over. The client frames each put with
// the context its key's last answer carried while other keys' answers
// come in, so every key ends with its last value alone.
func TestOneClientKeepsEachKeysContext(t *testing.T) {
	srvs := bootCluster(t, spec{model: "quorum", seed: 1000, heartbeat: fastBeat}).srvs
	c := dialNode(t, srvs[0], "shared")
	const writers, puts = 8, 10
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(key string) {
			for i := 0; i < puts; i++ {
				if err := c.Put(key, []byte{byte('0' + i)}); err != nil {
					errs <- err
					return
				}
				if _, _, err := c.Get(key); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(fmt.Sprintf("own-%d", w))
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < writers; w++ {
		key := fmt.Sprintf("own-%d", w)
		if got := siblingsOf(t, srvs[1], key); !slices.Equal(got, []string{"9"}) {
			t.Fatalf("%s = %q, want [9]", key, got)
		}
	}
}
