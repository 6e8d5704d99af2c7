//go:build race

package transport

// raceEnabled: the race detector's instrumentation moves values to the
// heap that escape analysis keeps on the stack otherwise, so an
// allocation pin cannot hold there.
const raceEnabled = true
