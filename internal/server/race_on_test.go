//go:build race

package server

// raceEnabled: the race detector's instrumentation moves the WAL's
// per-record header to the heap, so an allocation pin on the append
// path cannot hold there.
const raceEnabled = true
