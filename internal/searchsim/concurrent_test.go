package searchsim

import (
	"sync"
	"testing"

	"repro/internal/brands"
	"repro/internal/simclock"
)

// TestConcurrentReaders hammers the read-side API — EachSlot walks with
// callbacks that themselves call LabeledOn and Demoted, plus CountPoisoned
// and ChurnToday — from many goroutines at once. The observe phase of the
// day pipeline does exactly this; `go test -race` on this test is the
// regression guard for the engine's reader contract documented on EachSlot.
func TestConcurrentReaders(t *testing.T) {
	wd := build(t, 0.02, 6, 30)
	for d := 0; d < 10; d++ {
		wd.eng.Advance(simclock.Day(d))
	}

	const readers = 8
	var wg sync.WaitGroup
	counts := make([]int, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for _, v := range brands.All() {
					wd.eng.EachSlot(v, func(_, _ int, s *Slot) {
						counts[g]++
						if s.Poisoned() {
							wd.eng.LabeledOn(s.Domain)
						}
					})
				}
				wd.eng.ChurnToday()
			}
		}(g)
	}
	wg.Wait()

	for g := 1; g < readers; g++ {
		if counts[g] != counts[0] {
			t.Fatalf("reader %d saw %d slots, reader 0 saw %d", g, counts[g], counts[0])
		}
	}
}
