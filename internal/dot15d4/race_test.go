//go:build race

package dot15d4_test

// raceEnabled reports whether the race detector is on. Under it sync.Pool
// drops about a quarter of its Puts, so an allocation count of the pooled
// path says nothing about the code path.
const raceEnabled = true
