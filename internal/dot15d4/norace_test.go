//go:build !race

package dot15d4

// raceEnabled reports whether the race detector is on (see race_test.go).
const raceEnabled = false
