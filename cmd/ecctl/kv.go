package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/geo"
	"repro/internal/server"
	"repro/internal/session"
)

// dialAny connects to the first reachable node.
func dialAny(st *clusterState) (*server.Client, string, error) {
	var lastErr error
	for _, id := range sortedIDs(st) {
		c, err := server.Dial(st.Peers[id], "ecctl")
		if err == nil {
			return c, id, nil
		}
		lastErr = err
	}
	return nil, "", fmt.Errorf("no node reachable: %w", lastErr)
}

// tokenPath is where ecctl persists its session token between
// invocations: each `ecctl get/put` is a fresh process and possibly a
// different node, yet the session guarantees hold across them because
// the token carries the session's read/write vectors.
func tokenPath(dir string) string { return filepath.Join(dir, "session-token.json") }

func loadToken(dir string) session.Token {
	var t session.Token
	if b, err := os.ReadFile(tokenPath(dir)); err == nil {
		json.Unmarshal(b, &t)
	}
	return t
}

func saveToken(dir string, t session.Token) {
	if t.Read == nil && t.Write == nil {
		return
	}
	b, _ := json.Marshal(t)
	os.WriteFile(tokenPath(dir), b, 0o644)
}

func cmdKV(op string, args []string, stdout, stderr io.Writer) error {
	fs := newFlags(op, stderr)
	dir := stateDir(fs)
	node := fs.String("node", "", "target node (default: any reachable)")
	sla := fs.String("sla", "", "get only: consistency tier — strong, eventual, or bounded:<dur> (quorum model)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := loadState(*dir)
	if err != nil {
		return err
	}
	var tier geo.Tier
	if *sla != "" {
		if op != "get" {
			return fmt.Errorf("-sla applies to get only")
		}
		if tier, err = geo.ParseTier(*sla); err != nil {
			return err
		}
	}

	var c *server.Client
	if *node != "" {
		addr, ok := st.Peers[*node]
		if !ok {
			return fmt.Errorf("unknown node %q", *node)
		}
		c, err = server.Dial(addr, "ecctl")
	} else {
		c, _, err = dialAny(st)
	}
	if err != nil {
		return err
	}
	defer c.Close()
	if st.Model == "session" {
		c.SetToken(loadToken(*dir))
		defer func() { saveToken(*dir, c.Token()) }()
	}

	// Each run is a fresh client, which holds no causal context: a put or
	// a delete reads the key first and writes over what it read (Delete
	// does so by itself), so the CLI's writes of a key supersede each
	// other, through whichever node, as one client's would.
	switch op {
	case "put":
		if fs.NArg() != 2 {
			return fmt.Errorf("usage: ecctl put <key> <value>")
		}
		if _, err := c.GetSiblings(fs.Arg(0)); err != nil {
			return err
		}
		return c.Put(fs.Arg(0), []byte(fs.Arg(1)))
	case "get":
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: ecctl get [-sla tier] <key>")
		}
		if *sla != "" {
			v, found, delivered, staleMs, err := c.GetSLA(fs.Arg(0), tier)
			if err != nil {
				return err
			}
			if staleMs >= 0 {
				fmt.Fprintf(stderr, "sla: requested=%s delivered=%s staleness=%dms\n", tier.Kind, delivered, staleMs)
			} else {
				fmt.Fprintf(stderr, "sla: requested=%s delivered=%s staleness=unknown\n", tier.Kind, delivered)
			}
			if !found {
				return fmt.Errorf("key %q not found", fs.Arg(0))
			}
			fmt.Fprintln(stdout, string(v))
			return nil
		}
		vals, err := c.GetSiblings(fs.Arg(0))
		if err != nil {
			return err
		}
		if len(vals) == 0 {
			return fmt.Errorf("key %q not found", fs.Arg(0))
		}
		for _, v := range vals { // concurrent versions, one a line
			fmt.Fprintln(stdout, string(v))
		}
		return nil
	case "del":
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: ecctl del <key>")
		}
		return c.Delete(fs.Arg(0))
	}
	return nil
}
