//go:build race

package node

// raceEnabled: the race detector is on, and sync.Pool drops a share of
// what is put back, so allocation counts mean nothing.
const raceEnabled = true
