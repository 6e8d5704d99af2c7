//go:build !race

package quorum

const raceEnabled = false
