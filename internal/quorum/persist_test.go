package quorum

import (
	"errors"
	"hash/fnv"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/clock"
	"repro/internal/lsm"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wire"
	"repro/internal/wiretest"
)

// The on-disk codecs: stored sibling sets, WAL records, checkpoints.

// edgeEntries are the shapes a random draw rarely combines: an empty but
// non-nil value and context under empty ids, a tombstone with no value,
// and a nil value under a nil context.
var edgeEntries = []clock.SiblingEntry[record]{
	fixtureEntry("", 0, clock.Vector{}, []byte{}, false),
	fixtureEntry("c1", 3, clock.Vector{"c1": 2}, nil, true),
	fixtureEntry("s0", 1, nil, nil, false),
}

func genRecords(g *wiretest.Gen) []walRecord {
	return []walRecord{
		{Entry: &entryRec{Key: g.Str(), Entry: genEntry(g)}},
		{Hint: &hintRec{Intended: g.Str(), Key: g.Str(), Entry: genEntry(g)}},
		{HintAck: &hintAckRec{Intended: g.Str(), Key: g.Str()}},
		{Mint: &mintRec{Key: g.Str(), Counter: g.Uint64()}},
		{TransferDone: &transferDoneRec{Seq: g.Uint64(), Idx: int(g.Int64()), Start: g.Uint64(), End: g.Uint64()}},
		{GeoAck: &geoAckRec{Peer: g.Str(), Seq: g.Uint64()}},
	}
}

func checkStoredRoundTrip(t testing.TB, es []clock.SiblingEntry[record]) {
	t.Helper()
	b := encodeStored(es)
	if len(b) != cap(b) {
		t.Fatalf("encodeStored sized %d bytes for a %d-byte value", cap(b), len(b))
	}
	got, err := decodeStored(b)
	if err != nil {
		t.Fatalf("decodeStored(encodeStored(%#v)): %v", es, err)
	}
	if !reflect.DeepEqual(got, es) {
		t.Fatalf("stored round trip:\n got  %#v\n want %#v", got, es)
	}
}

func checkRecordRoundTrip(t testing.TB, r walRecord) {
	t.Helper()
	got, err := decodeRecord(appendRecord(nil, r))
	if err != nil {
		t.Fatalf("decodeRecord(appendRecord(%+v)): %v", r, err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("record round trip:\n got  %+v\n want %+v", got, r)
	}
}

func checkCodecSeed(t testing.TB, seed int64) {
	g := wiretest.NewGen(seed)
	checkStoredRoundTrip(t, genEntries(g))
	for _, r := range genRecords(g) {
		checkRecordRoundTrip(t, r)
	}
}

func TestOnDiskCodecRoundTrip(t *testing.T) {
	checkStoredRoundTrip(t, nil)
	checkStoredRoundTrip(t, []clock.SiblingEntry[record]{})
	checkStoredRoundTrip(t, edgeEntries)
	for _, e := range edgeEntries {
		checkRecordRoundTrip(t, walRecord{Entry: &entryRec{Key: "k", Entry: e}})
		checkRecordRoundTrip(t, walRecord{Hint: &hintRec{Intended: "s1", Key: "", Entry: e}})
	}
	for seed := int64(0); seed < 256; seed++ {
		checkCodecSeed(t, seed)
	}
}

// What the parent commit wrote starts, at the byte that versions each
// layout, with the length byte of a gob stream: refused as too old.
// Anything else unrecognised is malformed, not old.
func TestFormatBytes(t *testing.T) {
	keyed := appendRecord(nil, walRecord{Mint: &mintRec{Key: "k", Counter: 1}})
	for _, lead := range []byte{0x01, 0x2C, 0x7F, 0xF8, 0xFF} {
		oldKeyed := append([]byte(nil), keyed...)
		oldKeyed[9] = lead
		for name, err := range map[string]error{
			"stored value":     second(decodeStored([]byte{lead, 1})),
			"bare gob record":  second(decodeRecord([]byte{lead, 1, 2})),
			"keyed gob record": second(decodeRecord(oldKeyed)),
			"serial record":    second(decodeRecord([]byte{recMagicSerial, lead, 1})),
			"checkpoint":       NewNode("s0", fixtureConfig()).RestoreState([]byte{lead, 0, 0, 0, 0, 0}),
		} {
			if !errors.Is(err, wire.ErrFormatTooOld) {
				t.Errorf("%s led by %#x: got %v, want ErrFormatTooOld", name, lead, err)
			}
		}
	}
	for name, err := range map[string]error{
		"stored value":   second(decodeStored([]byte{0xE0, 1})),
		"record magic":   second(decodeRecord([]byte{0xEE, kindMint, 1})),
		"record kind":    second(decodeRecord([]byte{recMagicSerial, 0x90, 1})),
		"checkpoint":     NewNode("s0", fixtureConfig()).RestoreState([]byte{0xE3, 0, 0, 0, 0, 0}),
		"empty value":    second(decodeStored(nil)),
		"empty record":   second(decodeRecord(nil)),
		"short record":   second(decodeRecord(keyed[:9])),
		"wrong header":   second(decodeRecord(append([]byte{recMagicSerial}, keyed[9:]...))),
		"wrong key hash": second(decodeRecord(append([]byte{recMagicKeyed, 0, 0, 0, 0, 0, 0, 0, 0}, keyed[9:]...))),
	} {
		if err == nil || errors.Is(err, wire.ErrFormatTooOld) {
			t.Errorf("%s: got %v, want a malformed-input error", name, err)
		}
	}
}

func second[T any](_ T, err error) error { return err }

// FuzzStoredEntries: arbitrary bytes never panic the stored-value decoder
// or make it allocate beyond the input's size; what decodes re-encodes to
// the same set; generated sets round-trip exactly. The digest's walk over
// the same bytes (storedDots) accepts exactly what decodeStored
// accepts and finds the dots of the decoded entries.
func FuzzStoredEntries(f *testing.F) {
	f.Add(encodeStored(edgeEntries), int64(0))
	f.Add([]byte{storedFormat, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, int64(1)) // a count far past the bytes
	f.Add([]byte{0x2C, 0xFF, 0x81}, int64(2))                           // gob
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		es, err := decodeStored(data)
		if err == nil {
			checkStoredRoundTrip(t, es)
		}
		checkStoredDots(t, data, es, err)
		gen := genEntries(wiretest.NewGen(seed))
		checkStoredRoundTrip(t, gen)
		checkStoredDots(t, encodeStored(gen), gen, nil)
	})
}

// checkStoredDots checks storedDots against decodeStored's result
// (es, err) for the same bytes.
func checkStoredDots(t *testing.T, data []byte, es []clock.SiblingEntry[record], err error) {
	t.Helper()
	dots, dotsErr := storedDots(data)
	if (err == nil) != (dotsErr == nil) {
		t.Fatalf("decodeStored: %v; storedDots: %v", err, dotsErr)
	}
	if err != nil {
		return
	}
	if len(dots) != len(es) {
		t.Fatalf("%d dots for %d entries", len(dots), len(es))
	}
	for i, e := range es {
		if dots[i] != e.DVV.Dot {
			t.Fatalf("dot %d = %v, entry has %v", i, dots[i], e.DVV.Dot)
		}
	}
}

// FuzzWALRecord: the same for the journal record decoder and all six
// record kinds, plus replay itself — a record that decodes applies to a
// fresh node without panicking.
func FuzzWALRecord(f *testing.F) {
	for i, r := range genRecords(wiretest.NewGen(7)) {
		f.Add(appendRecord(nil, r), int64(i))
	}
	f.Add([]byte{recMagicKeyed, 1, 2, 3}, int64(8))
	f.Add([]byte{0x2C, 0xFF, 0x81}, int64(9)) // gob
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if r, err := decodeRecord(data); err == nil {
			checkRecordRoundTrip(t, r)
			if err := NewNode("s0", fixtureConfig()).ReplayRecord(data); err != nil {
				t.Fatalf("record decodes but does not replay: %v", err)
			}
		}
		for _, r := range genRecords(wiretest.NewGen(seed)) {
			checkRecordRoundTrip(t, r)
		}
	})
}

// The anti-entropy digest is FNV-1a over (dot node, dot counter LE,
// tombstone flag, value) per entry in stored order — the function the
// previous keyStateHash computed with hash/fnv. Replicas compare these
// digests, so it may not drift, and it may not depend on the context
// (whose encoding order differs across replicas).
func TestEntriesDigestIsFNV1aOverDecodedFields(t *testing.T) {
	for seed := int64(0); seed < 64; seed++ {
		es := genEntries(wiretest.NewGen(seed))
		h := fnv.New64a()
		for _, e := range es {
			h.Write([]byte(e.DVV.Dot.Node))
			var b [9]byte
			for i := 0; i < 8; i++ {
				b[i] = byte(e.DVV.Dot.Counter >> (8 * i))
			}
			if e.Value.Deleted {
				b[8] = 1
			}
			h.Write(b[:])
			h.Write(e.Value.Value)
		}
		if got := entriesDigest(es); got != h.Sum64() {
			t.Fatalf("seed %d: digest %#x, hash/fnv says %#x", seed, got, h.Sum64())
		}
		for i := range es {
			es[i].DVV.Context = clock.Vector{"other": 9}
		}
		if got := entriesDigest(es); got != h.Sum64() {
			t.Fatalf("seed %d: digest moved with the context", seed)
		}
	}
}

// sinkEnv is a transport.Env that drops every send.
type sinkEnv struct{ sim.Env }

func (sinkEnv) Send(string, sim.Message) {}
func (sinkEnv) Domain() int              { return 0 }

// TestReplicaPathAllocBudget pins the three operations a replica performs
// per client request. The counts are deterministic; a reflective codec
// on any of them costs hundreds and fails this long before a benchmark
// runs. Budgets are what go1.24 measures (5, 5 and 1) plus headroom for
// a runtime that builds a small map in more pieces.
func TestReplicaPathAllocBudget(t *testing.T) {
	const runs = 200
	var journaled int
	cfg := Config{
		Ring: []string{"s0", "s1", "s2"}, N: 3, R: 2, W: 2,
		ReadRepair: true, SloppyQuorum: true, AntiEntropy: true,
	}
	n := NewNode("s0", cfg)
	value := make([]byte, 128)
	// Each install supersedes the one before, as a client overwriting its
	// own key does: the set changes every time and stays at one sibling.
	entries := make([]clock.SiblingEntry[record], 2*runs+2)
	for i := range entries {
		entries[i] = fixtureEntry("client", uint64(i+1), clock.Vector{"client": uint64(i), "s1": 4}, value, false)
	}
	next := 0
	install := testing.AllocsPerRun(runs, func() {
		n.installEntry(0, "hot", entries[next])
		next++
	})
	if got := n.localEntries("hot"); len(got) != 1 || got[0].DVV.Dot.Counter != uint64(next) {
		t.Fatalf("after %d installs the key holds %+v", next, got)
	}
	if install > 8 {
		t.Errorf("installEntry onto an existing key: %v allocs, budget 8", install)
	}
	// And in bytes: the stored set and what decoding the old one costs,
	// with nothing kept per install beside the one value the key holds.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		n.installEntry(0, "hot", entries[next])
		next++
	}
	runtime.ReadMemStats(&m1)
	installBytes := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	if installBytes > 560 && !raceEnabled {
		t.Errorf("installEntry of a 128 B value onto an existing key: %.0f B, budget 560", installBytes)
	}

	get := testing.AllocsPerRun(runs, func() {
		n.answerReplicaGet(sinkEnv{}, "s1", replicaGet{ID: 1, Key: "hot"})
	})
	if get > 8 {
		t.Errorf("answerReplicaGet of a stored key: %v allocs, budget 8", get)
	}
	// Reading the dots through Engine.View costs no more objects than
	// reading the set: the callback is not allocated per answer.
	digestKV := testing.AllocsPerRun(runs, func() {
		n.answerDigest(sinkEnv{}, "s1", replicaDigest{ID: 1, Key: "hot"})
	})
	if digestKV > get && !raceEnabled {
		t.Errorf("answerReplicaGet of a stored key, digest: %v allocs, more than the %v of a full answer", digestKV, get)
	}

	// A digest answer for a 4 KiB value in an SSTable reads the dots in
	// place: the value is not copied out of the block to be dropped.
	eng, err := lsm.Open(lsm.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	lcfg := cfg
	lcfg.Storage = func(int) storage.Engine { return eng }
	ln := NewNode("s0", lcfg)
	defer ln.Close()
	ln.installEntry(0, "big", fixtureEntry("client", 1, clock.Vector{"s1": 4}, make([]byte, 4096), false))
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	answerDigest := func() { ln.answerDigest(sinkEnv{}, "s1", replicaDigest{ID: 1, Key: "big"}) }
	answerDigest()
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		answerDigest()
	}
	runtime.ReadMemStats(&m1)
	digest := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	if digest > 512 && !raceEnabled {
		t.Errorf("answerReplicaGet of an SSTable-resident 4 KiB key, digest: %.0f B, budget 512", digest)
	}

	pcfg := cfg
	pcfg.PersistAt = func(_ int, rec []byte) { journaled += len(rec) }
	pn := NewNode("s0", pcfg)
	rec := testing.AllocsPerRun(runs, func() {
		pn.persistRecord(1, walRecord{Entry: &entryRec{Key: "hot", Entry: entries[0]}})
	})
	if journaled == 0 {
		t.Fatal("persistRecord journaled nothing")
	}
	if rec > 1 {
		t.Errorf("encoding one entry WAL record: %v allocs, budget 1", rec)
	}
	t.Logf("allocs: install %v (%.0f B), replica get %v (digest %v), entry record %v; digest of a 4 KiB SSTable value %.0f B", install, installBytes, get, digestKV, rec, digest)
}
