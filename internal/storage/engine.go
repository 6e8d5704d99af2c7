package storage

// Engine is the multi-version store contract extracted from *KV, so a
// replica's storage can be swapped between the in-memory map (KV) and
// the disk-resident LSM tree (internal/lsm) without the replication
// layers noticing. The semantics every implementation must satisfy are
// pinned by the shared conformance suite in storage/enginetest:
//
//   - Put/Delete assign a store-local, strictly increasing sequence
//     number and keep every prior version until Compact.
//   - Get returns the newest live version; GetAt(key, at) the newest
//     version with Seq <= at; GetAny includes tombstones. View is Get
//     without the copy: it lends the stored bytes to a callback.
//   - Scan walks live keys in order; ScanAll includes tombstoned keys.
//   - OpenSnapshot anchors a read view at the current Seq; Compact may
//     not drop any version visible to an open snapshot or to the given
//     keepSeq (the TestKVCompactKeepsOpenSnapshotView contract).
//   - Close releases files and background work; for KV it is a no-op.
type Engine interface {
	// Seq returns the sequence number of the newest committed write.
	Seq() uint64
	// Put commits a new version of key and returns its sequence number.
	Put(key string, value []byte, meta []byte) uint64
	// Delete commits a tombstone for key.
	Delete(key string, meta []byte) uint64
	// Get returns the latest version of key, if it is live.
	Get(key string) (Version, bool)
	// View calls fn with the version Get would return and reports
	// whether there was one. The version's Value and Meta may alias the
	// engine's own buffers: they are valid only while fn runs, must not
	// be written through, and fn must not call the engine.
	View(key string, fn func(Version)) bool
	// GetAt returns the newest version of key with Seq <= at, if live at
	// that point.
	GetAt(key string, at uint64) (Version, bool)
	// GetAny returns the latest version even if it is a tombstone.
	GetAny(key string) (Version, bool)
	// Len returns the number of live keys.
	Len() int
	// Scan returns up to limit live pairs with lo <= key < hi ("" = open).
	Scan(lo, hi string, limit int) []Pair
	// ScanAll is Scan including tombstoned keys.
	ScanAll(lo, hi string, limit int) []Pair
	// OpenSnapshot anchors a consistent read view at the current Seq.
	OpenSnapshot() EngineSnapshot
	// Compact drops versions no read at or after keepSeq could see.
	Compact(keepSeq uint64)
	// VersionCount reports the total stored versions (for tests/metrics).
	VersionCount() int
	// Close releases the engine's resources. Reads and writes after
	// Close are undefined.
	Close() error
}

// EngineSnapshot is a consistent read view anchored at a sequence
// number. Release lets the engine reclaim versions the snapshot was
// holding; using a snapshot after Release is undefined.
type EngineSnapshot interface {
	Seq() uint64
	Get(key string) (Version, bool)
	Scan(lo, hi string, limit int) []Pair
	Release()
}

var (
	_ Engine         = (*KV)(nil)
	_ EngineSnapshot = (*Snapshot)(nil)
)
