package main

import (
	"testing"

	"repro/internal/server"
)

// statusLine renders a node's Status and /metrics as one line of
// `ecctl status`: each field appears only when the node reports it.
func TestStatusLine(t *testing.T) {
	for _, tc := range []struct {
		name    string
		id      string
		status  server.Status
		metrics map[string]float64
		want    string
	}{
		{
			name:   "gossip node suspecting a peer, metrics unreadable",
			id:     "node0",
			status: server.Status{Model: "gossip", Uptime: "3.2s", Suspect: []string{"node1", "node2"}},
			want:   "node0    UP model=gossip uptime=3.2s suspects=node1,node2",
		},
		{
			name:   "quorum joiner streaming its arcs",
			id:     "node3",
			status: server.Status{Model: "quorum", Uptime: "1s", State: "catching-up", Epoch: 1, Shards: 2},
			metrics: map[string]float64{
				"ec_transfer_ranges_pending": 7,
				"ec_transfer_ranges_total":   5,
			},
			want: "node3    UP model=quorum uptime=1s state=catching-up epoch=1 transfer-pending=7 transferred-ranges=5 shards=2",
		},
		{
			name: "zoned durable lsm node restarted from its WAL",
			id:   "node0",
			status: server.Status{
				Model: "quorum", Uptime: "9s", State: "ok", Epoch: 2, Zone: "us",
				GeoStalenessMs: map[string]int64{"eu": 40, "ap": 120}, GeoQueue: 3,
				Shards: 2, ReplayedByLane: []uint64{4, 10, 6},
			},
			metrics: map[string]float64{
				"ec_wal_last_seq":               30,
				"ec_wal_checkpoint_seq":         12,
				"ec_wal_disk_bytes":             2048,
				"ec_wal_records_replayed_total": 20,
				"ec_lsm_sstables":               3,
				"ec_lsm_disk_bytes":             3 << 20,
			},
			want: "node0    UP model=quorum uptime=9s zone=us state=ok epoch=2 geo-lag=ap:120ms,eu:40ms geo-queue=3" +
				" ckpt=12 wal=2.0KiB replayed=20 lsm=3.0MiB/3sst shards=2 replayed-by-lane=4/10/6",
		},
		{
			name:    "durable node that replayed nothing shows no lanes",
			id:      "node1",
			status:  server.Status{Model: "quorum", Uptime: "2s", State: "ok", Shards: 2, ReplayedByLane: []uint64{0, 0, 0}},
			metrics: map[string]float64{"ec_wal_last_seq": 0, "ec_wal_checkpoint_seq": 0, "ec_wal_disk_bytes": 0},
			want:    "node1    UP model=quorum uptime=2s state=ok epoch=0 ckpt=0 wal=0B shards=2",
		},
	} {
		if got := statusLine(tc.id, tc.status, tc.metrics); got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}
