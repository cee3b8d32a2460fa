package searchsim

import (
	"testing"
	"testing/quick"

	"repro/internal/brands"
	"repro/internal/simclock"
)

// TestSlotAccountingProperty: after arbitrary advance sequences, every SERP
// still holds exactly SlotsPerTerm slots, the per-campaign index lists are
// consistent with the slot array, and no slot is double-owned.
func TestSlotAccountingProperty(t *testing.T) {
	wd := build(t, 0.02, 6, 40)
	check := func(daysRaw []uint8) bool {
		for _, d := range daysRaw {
			wd.eng.Advance(simclock.Day(d) % 245)
		}
		for _, v := range brands.All() {
			vs := wd.eng.verticals[v]
			for _, sp := range vs.serps {
				if len(sp.slots) != 40 {
					return false
				}
				owned := make(map[int]string)
				for key, idxs := range sp.byCampaign {
					for _, idx := range idxs {
						if idx < 0 || idx >= len(sp.slots) {
							return false
						}
						if prev, dup := owned[idx]; dup {
							t.Logf("slot %d owned by %s and %s", idx, prev, key)
							return false
						}
						owned[idx] = key
						s := sp.slots[idx]
						if !s.Poisoned() || s.Doorway.Campaign.Key() != key {
							return false
						}
					}
				}
				// Every poisoned slot must be indexed.
				var poisoned int
				for idx := range sp.slots {
					if sp.slots[idx].Poisoned() {
						poisoned++
					}
				}
				if poisoned != len(owned) {
					t.Logf("%d poisoned slots, %d indexed", poisoned, len(owned))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
