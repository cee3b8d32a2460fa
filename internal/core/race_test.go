//go:build race

package core

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop pooled items at random, so pooled scratch buffers allocate and
// allocation counts cannot be pinned.
const raceEnabled = true
