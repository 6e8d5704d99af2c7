//go:build race

package quorum

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts at random, so a byte budget that counts on the LSM's block pool
// cannot hold there.
const raceEnabled = true
