//go:build !race

package htmlparse

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
