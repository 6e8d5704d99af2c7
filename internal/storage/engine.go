package storage

// Engine is the replica store contract: one value per key, so a replica's
// storage can be swapped between the in-memory map (KV) and the
// disk-resident LSM tree (internal/lsm) without the replication layers
// noticing. The store keeps no history of its own: concurrent updates are
// detected by the version vectors the caller encodes into the value, so a
// Put simply replaces what the key held. The semantics every
// implementation must satisfy are pinned by the shared conformance suite
// in storage/enginetest.
type Engine interface {
	// Put stores value as key's value, replacing any earlier one. The
	// third parameter is ignored.
	Put(key string, value []byte, _ []byte)
	// Get returns key's value. It must not be written through.
	Get(key string) ([]byte, bool)
	// View calls fn with the value Get would return and reports whether
	// there was one. The value may alias the engine's own buffers: it is
	// valid only while fn runs, must not be written through, and fn must
	// not call the engine.
	View(key string, fn func([]byte)) bool
	// Scan returns up to limit pairs with lo <= key < hi in key order
	// ("" = open bound, limit <= 0 = no limit).
	Scan(lo, hi string, limit int) []Pair
	// Len returns the number of keys.
	Len() int
	// Close releases the engine's resources. Reads and writes after
	// Close are undefined.
	Close() error
}

// Pair is a key together with its value.
type Pair struct {
	Key   string
	Value []byte
}

var _ Engine = (*KV)(nil)
