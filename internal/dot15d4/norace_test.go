//go:build !race

package dot15d4_test

// raceEnabled reports whether the race detector is on (see race_test.go).
const raceEnabled = false
