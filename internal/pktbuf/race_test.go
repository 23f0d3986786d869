//go:build race

package pktbuf

// raceEnabled reports whether the race detector is on. Under it sync.Pool
// drops entries at random, so an allocation count of the pooled path says
// nothing about the pool.
const raceEnabled = true
