package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
)

const (
	nodes = 3
	// shards is each quorum node's execution shard count: what a node
	// on this 2-core host defaults to. It is set explicitly because the
	// benchmark itself runs on one P (see main), and the sharded code
	// path is the one that ships.
	shards = 2
)

// cluster is the system under test: three server.Server nodes in this
// process, talking over loopback TCP, each with its /metrics sidecar.
// In-process so that runtime.MemStats and getrusage see the whole
// system, as benchsuite.RunSaturation does.
type cluster struct {
	servers []*server.Server
	http    *http.Client
}

// bootCluster starts the workload's cluster with data under dir.
func bootCluster(wl workload, dir string, seed int64) (*cluster, error) {
	addrs, err := reserveAddrs(nodes)
	if err != nil {
		return nil, err
	}
	peers := make(map[string]string, nodes)
	for i, a := range addrs {
		peers[fmt.Sprintf("node%d", i)] = a
	}
	c := &cluster{http: &http.Client{Timeout: 5 * time.Second}}
	for i := 0; i < nodes; i++ {
		cfg := server.Config{
			ID:         fmt.Sprintf("node%d", i),
			Model:      wl.model,
			Peers:      peers,
			ListenHTTP: "127.0.0.1:0",
			N:          3, R: 2, W: 2,
			Seed:   seed*1000 + int64(i),
			Shards: shards,
			Engine: wl.engine,
		}
		if wl.durable {
			cfg.DataDir = filepath.Join(dir, cfg.ID)
			cfg.Fsync = wl.fsync
			if wl.noCheckpoint {
				cfg.CheckpointInterval = -1
			}
		}
		s, err := server.New(cfg)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("boot %s: %w", cfg.ID, err)
		}
		c.servers = append(c.servers, s)
	}
	return c, nil
}

func (c *cluster) close() {
	for _, s := range c.servers {
		s.Close()
	}
	c.http.CloseIdleConnections()
}

// reserveAddrs grabs n distinct loopback addresses by binding and
// releasing ephemeral listeners: the members must agree on the peer map
// before any of them starts.
func reserveAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// sample is one scrape of a node's /metrics: series name (with its
// label set, as printed) to value.
type sample map[string]float64

func (c *cluster) scrapeNode(i int) (sample, error) {
	resp, err := c.http.Get("http://" + c.servers[i].HTTPAddr() + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := sample{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// scrape reads every node's /metrics.
func (c *cluster) scrape() ([]sample, error) {
	out := make([]sample, len(c.servers))
	for i := range c.servers {
		s, err := c.scrapeNode(i)
		if err != nil {
			return nil, fmt.Errorf("scrape node%d: %w", i, err)
		}
		out[i] = s
	}
	return out, nil
}

// sum adds every series whose name starts with prefix, over all nodes
// (a labelled family like ec_shard_ops_total{shard="0"} sums its
// members).
func sum(ss []sample, prefix string) float64 {
	var t float64
	for _, s := range ss {
		for name, v := range s {
			if strings.HasPrefix(name, prefix) {
				t += v
			}
		}
	}
	return t
}

// quiesce waits until replication traffic has died down: the summed
// ec_transport_bytes_sent_total grows by less than 100 KB per interval
// twice in a row. It gives up after 15 s so a cluster that never calms
// fails the run instead of hanging it.
func (c *cluster) quiesce(interval time.Duration) error {
	deadline := time.Now().Add(15 * time.Second)
	prev, calm := -1.0, 0
	for time.Now().Before(deadline) {
		ss, err := c.scrape()
		if err != nil {
			return err
		}
		cur := sum(ss, "ec_transport_bytes_sent_total")
		if prev >= 0 && cur-prev < 100e3 {
			calm++
			if calm == 2 {
				return nil
			}
		} else {
			calm = 0
		}
		prev = cur
		time.Sleep(interval)
	}
	return fmt.Errorf("cluster did not quiesce within 15s")
}
