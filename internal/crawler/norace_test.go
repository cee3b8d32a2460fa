//go:build !race

package crawler

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
