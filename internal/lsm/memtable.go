package lsm

import (
	"sort"

	"repro/internal/storage"
)

// memtable is the mutable in-memory level: the same multi-version
// shape as storage.KV (ascending versions per key, sorted key index)
// plus byte accounting so the engine knows when to flush. All access
// is guarded by the engine mutex — the memtable itself is not locked.
type memtable struct {
	versions map[string][]storage.Version // ascending by Seq
	keys     []string                     // sorted
	bytes    int                          // approximate resident size
}

// memEntryOverhead approximates the per-version bookkeeping cost added
// to key+value bytes when sizing the memtable against the flush
// threshold.
const memEntryOverhead = 48

func newMemtable() *memtable {
	return &memtable{versions: make(map[string][]storage.Version)}
}

func (m *memtable) add(key string, v storage.Version) {
	vs, ok := m.versions[key]
	if !ok {
		i := sort.SearchStrings(m.keys, key)
		m.keys = append(m.keys, "")
		copy(m.keys[i+1:], m.keys[i:])
		m.keys[i] = key
		m.bytes += len(key)
	}
	m.versions[key] = append(vs, v)
	m.bytes += len(v.Value) + len(v.Meta) + memEntryOverhead
}

func (m *memtable) get(key string) ([]storage.Version, bool) {
	vs, ok := m.versions[key]
	return vs, ok
}

// rangeKeys returns the sorted keys in [lo, hi) ("" = open bound).
func (m *memtable) rangeKeys(lo, hi string) []string {
	start := 0
	if lo != "" {
		start = sort.SearchStrings(m.keys, lo)
	}
	end := len(m.keys)
	if hi != "" {
		end = sort.SearchStrings(m.keys, hi)
	}
	if start >= end {
		return nil
	}
	return m.keys[start:end]
}

// compact drops versions no read at or after keepSeq could observe,
// mirroring storage.KV.Compact: per key, everything older than the
// newest version with Seq <= keepSeq goes; a key whose only remaining
// version is a tombstone at or before keepSeq is purged entirely only
// if the engine-level merge says no older levels still hold it — the
// memtable cannot decide that alone, so it keeps single tombstones and
// leaves purging to the table merge.
func (m *memtable) compact(keepSeq uint64, canPurge func(key string) bool) {
	kept := m.keys[:0]
	for _, key := range m.keys {
		vs := m.versions[key]
		i := sort.Search(len(vs), func(i int) bool { return vs[i].Seq > keepSeq })
		if i > 0 {
			for _, v := range vs[:i-1] {
				m.bytes -= len(v.Value) + memEntryOverhead
			}
			vs = append(vs[:0:0], vs[i-1:]...)
		}
		if len(vs) == 1 && vs[0].Tombstone && vs[0].Seq <= keepSeq && canPurge(key) {
			m.bytes -= len(vs[0].Value) + memEntryOverhead + len(key)
			delete(m.versions, key)
			continue
		}
		m.versions[key] = vs
		kept = append(kept, key)
	}
	m.keys = kept
}

func (m *memtable) versionCount() int {
	n := 0
	for _, vs := range m.versions {
		n += len(vs)
	}
	return n
}
