package quorum

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/clock"
)

// checkpointBytes writes n's checkpoint image into a buffer: the bytes a
// checkpoint file holds between its header and trailer.
func checkpointBytes(n *Node) []byte {
	var b bytes.Buffer
	n.Checkpoint().WriteTo(&b)
	return b.Bytes()
}

// keysOfShard returns count keys that shard k of n owns.
func keysOfShard(n *Node, k, count int) []string {
	var keys []string
	for i := 0; len(keys) < count; i++ {
		if key := fmt.Sprintf("key-%d", i); n.shardFor(key) == n.shards[k] {
			keys = append(keys, key)
		}
	}
	return keys
}

// nodeWithValues returns a 2-shard node holding keys values of size
// bytes each.
func nodeWithValues(keys, size int) *Node {
	n := NewNode("s0", fixtureConfig())
	val := bytes.Repeat([]byte{0xAB}, size)
	for i := 0; i < keys; i++ {
		n.installEntry(0, fmt.Sprintf("key-%06d", i), fixtureEntry("c1", uint64(i+1), clock.Vector{}, val, false))
	}
	return n
}

// The generator's checkpoint, streamed from the image, is the committed
// v4 file byte for byte: the streamed layout is the layout the buffered
// encoder wrote.
func TestCheckpointImageIsTheCommittedFixture(t *testing.T) {
	root := t.TempDir()
	writeFixtureDirs(t, root)
	ents, err := os.ReadDir(filepath.Join("testdata", "v4", "ckpt"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("testdata/v4/ckpt holds %d files (%v), want 1", len(ents), err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "v4", "ckpt", ents[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(root, "ckpt", ents[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("streamed checkpoint is %d bytes that differ from the committed %d", len(got), len(want))
	}
}

// The capture on the actor loop takes references: 1,000 keys of 4 KiB
// cost it their pair list, not their values.
func TestCheckpointCaptureCopiesNoValue(t *testing.T) {
	const keys, captures = 1000, 10
	n := nodeWithValues(keys, 4<<10)
	n.Checkpoint() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < captures; i++ {
		n.Checkpoint()
	}
	runtime.ReadMemStats(&after)
	if perKey := float64(after.TotalAlloc-before.TotalAlloc) / captures / keys; perKey >= 64 {
		t.Fatalf("a capture allocates %.1f B per key of 4 KiB, want under 64", perKey)
	}
}

// Checkpoints are captured and written over and over while installs
// overwrite every key on both shards. Each image must hold, for every
// key, an intact value at least as new as the last round installed
// before its capture began; under the race detector, an install that
// wrote through a captured value fails the run.
func TestCheckpointWhileInstallingOnBothShards(t *testing.T) {
	const keysPerShard, checkpoints, size = 100, 20, 256
	n := NewNode("s0", fixtureConfig())
	value := func(round uint64) []byte { return bytes.Repeat([]byte{byte(round)}, size) }
	writer := func(k int) string { return fmt.Sprintf("w%d", k) }
	keys := make([][]string, len(n.shards))
	var rounds [2]atomic.Uint64 // last round each shard's writer finished
	for k := range n.shards {
		keys[k] = keysOfShard(n, k, keysPerShard)
		for _, key := range keys[k] {
			n.installEntry(1+k, key, fixtureEntry(writer(k), 1, clock.Vector{}, value(1), false))
		}
		rounds[k].Store(1)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for k := range n.shards {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for r := uint64(2); !stop.Load(); r++ {
				ctx := clock.Vector{{ID: writer(k), Counter: r - 1}}
				for _, key := range keys[k] {
					n.installEntry(1+k, key, fixtureEntry(writer(k), r, ctx, value(r), false))
				}
				rounds[k].Store(r)
			}
		}(k)
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	for c := 0; c < checkpoints; c++ {
		floor := [2]uint64{rounds[0].Load(), rounds[1].Load()}
		image := n.Checkpoint()
		var buf bytes.Buffer
		if _, err := image.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		restored := NewNode("s0", fixtureConfig())
		if err := restored.RestoreState(buf.Bytes()); err != nil {
			t.Fatalf("checkpoint %d: %v", c, err)
		}
		for k := range keys {
			for _, key := range keys[k] {
				es := restored.localEntries(key)
				if len(es) != 1 {
					t.Fatalf("checkpoint %d: key %q restored %d siblings, want 1", c, key, len(es))
				}
				r := es[0].DVV.Dot.Counter
				if r < floor[k] {
					t.Fatalf("checkpoint %d: key %q restored round %d, older than round %d installed before the capture", c, key, r, floor[k])
				}
				if !bytes.Equal(es[0].Value.Value, value(r)) {
					t.Fatalf("checkpoint %d: key %q restored a torn value for round %d", c, key, r)
				}
			}
		}
	}
}

// BenchmarkCheckpointCapture times the part of a checkpoint that runs on
// the actor loop: capturing 100,000 keys of 128 B on two shards.
func BenchmarkCheckpointCapture(b *testing.B) {
	n := nodeWithValues(100_000, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Checkpoint()
	}
}
