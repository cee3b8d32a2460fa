package searchsim

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/brands"
	"repro/internal/campaign"
	"repro/internal/rng"
	"repro/internal/simclock"
)

type world struct {
	eng  *Engine
	deps []*campaign.Deployment
	w    simclock.Window
}

func build(t testing.TB, scale float64, terms, slots int) *world {
	t.Helper()
	r := rng.New(31)
	w := simclock.StudyWindow()
	specs := campaign.Roster(w)
	deps := campaign.DeployAll(r.Sub("deploy"), specs, scale)
	termSets := make(map[brands.Vertical][]string)
	for _, v := range brands.All() {
		ts := brands.Terms(r.Sub("terms"), v, terms)
		termSets[v] = ts.Terms
	}
	cfg := DefaultConfig()
	cfg.TermsPerVertical = terms
	cfg.SlotsPerTerm = slots
	return &world{eng: New(cfg, r, deps, termSets), deps: deps, w: w}
}

func (wd *world) spec(name string) *campaign.Spec {
	for _, d := range wd.deps {
		if d.Spec.Name == name {
			return d.Spec
		}
	}
	return nil
}

// countPoisoned returns a vertical's poisoned and total slot counts.
func countPoisoned(e *Engine, v brands.Vertical) (poisoned, slots int) {
	e.EachSlot(v, func(_, _ int, s *Slot) {
		slots++
		if s.Poisoned() {
			poisoned++
		}
	})
	return poisoned, slots
}

func TestInitialSERPsAllBenign(t *testing.T) {
	wd := build(t, 0.02, 10, 50)
	for _, v := range brands.All() {
		poisoned, slots := countPoisoned(wd.eng, v)
		if poisoned != 0 {
			t.Fatalf("%s poisoned before any Advance: %d", v, poisoned)
		}
		if slots != 10*50 {
			t.Fatalf("%s slots = %d", v, slots)
		}
	}
}

func TestAdvancePoisonsTargetedVerticals(t *testing.T) {
	wd := build(t, 0.02, 10, 50)
	wd.eng.Advance(5) // KEY peak period
	poisoned, slots := countPoisoned(wd.eng, brands.BeatsByDre)
	if poisoned == 0 {
		t.Fatal("Beats By Dre should be poisoned during KEY peak")
	}
	frac := float64(poisoned) / float64(slots)
	if frac < 0.05 || frac > 0.6 {
		t.Fatalf("Beats poisoning fraction = %v, want 5%%..60%%", frac)
	}
}

func TestPoisonedSlotsBelongToTargetingCampaigns(t *testing.T) {
	wd := build(t, 0.02, 8, 50)
	wd.eng.Advance(30)
	for _, v := range brands.All() {
		wd.eng.EachSlot(v, func(_, _ int, s *Slot) {
			if s.Poisoned() && !s.Doorway.Campaign.Targets(v) {
				t.Errorf("campaign %s holds a slot in untargeted vertical %s",
					s.Doorway.Campaign.Name, v)
			}
		})
	}
}

func TestSlotInvariants(t *testing.T) {
	wd := build(t, 0.02, 8, 60)
	for _, d := range []simclock.Day{1, 15, 40} {
		wd.eng.Advance(d)
	}
	wd.eng.EachSlot(brands.Uggs, func(_, rank int, s *Slot) {
		if s.Rank != rank {
			t.Fatalf("rank mismatch: %d vs %d", s.Rank, rank)
		}
		if s.Domain == "" || s.URL == "" {
			t.Fatal("slot without domain/url")
		}
		if !strings.Contains(s.URL, s.Domain) {
			t.Fatalf("URL %q does not contain domain %q", s.URL, s.Domain)
		}
		if s.Root && strings.Count(strings.TrimPrefix(s.URL, "http://"), "/") > 1 {
			t.Fatalf("root slot with deep URL %q", s.URL)
		}
	})
}

func TestChurnIsLow(t *testing.T) {
	wd := build(t, 0.02, 20, 100)
	wd.eng.Advance(10)
	wd.eng.Advance(11)
	neu, total := wd.eng.ChurnToday()
	frac := float64(neu) / float64(total)
	// The paper measured 1.84% newly seen domains per day on average.
	if frac > 0.12 {
		t.Fatalf("daily churn = %.3f, want low", frac)
	}
	if total != 16*20*100 {
		t.Fatalf("total slots = %d", total)
	}
}

func TestDayToDayPersistence(t *testing.T) {
	wd := build(t, 0.02, 10, 50)
	wd.eng.Advance(20)
	before := wd.eng.SERP(brands.LouisVuitton, 0)
	wd.eng.Advance(21)
	after := wd.eng.SERP(brands.LouisVuitton, 0)
	same := 0
	for i := range before {
		if before[i].Domain == after[i].Domain {
			same++
		}
	}
	if same < len(before)*7/10 {
		t.Fatalf("only %d/%d slots persisted across a day", same, len(before))
	}
}

func TestKeyCollapseReflectedInSERPs(t *testing.T) {
	wd := build(t, 0.05, 10, 100)
	key := wd.spec("KEY")
	countKey := func() int {
		n := 0
		wd.eng.EachSlot(brands.Abercrombie, func(_, _ int, s *Slot) {
			if s.Poisoned() && s.Doorway.Campaign.Name == "KEY" {
				n++
			}
		})
		return n
	}
	wd.eng.Advance(key.DemotedOn - 5)
	before := countKey()
	wd.eng.Advance(key.DemotedOn + 10)
	after := countKey()
	if before == 0 {
		t.Fatal("KEY absent before demotion")
	}
	if after > before/3 {
		t.Fatalf("KEY slots %d -> %d; want collapse", before, after)
	}
}

func TestDemoteExpelsDomain(t *testing.T) {
	wd := build(t, 0.02, 10, 50)
	wd.eng.Advance(5)
	var victim string
	wd.eng.EachSlot(brands.BeatsByDre, func(_, _ int, s *Slot) {
		if victim == "" && s.Poisoned() {
			victim = s.Domain
		}
	})
	if victim == "" {
		t.Fatal("no poisoned slot to demote")
	}
	wd.eng.Demote(victim)
	wd.eng.EachSlot(brands.BeatsByDre, func(_, _ int, s *Slot) {
		if s.Domain == victim && s.Poisoned() {
			t.Fatalf("demoted domain %s still in results", victim)
		}
	})
	if st := wd.eng.ExportState(); !slices.Contains(st.Demoted, victim) {
		t.Fatal("demoted domain missing from the exported state")
	}
	// And it must not come back.
	for d := simclock.Day(6); d < 20; d++ {
		wd.eng.Advance(d)
	}
	wd.eng.EachSlot(brands.BeatsByDre, func(_, _ int, s *Slot) {
		if s.Poisoned() && s.Domain == victim {
			t.Fatalf("demoted domain %s reinserted", victim)
		}
	})
}

func TestLabelAppliesOnlyToRootResults(t *testing.T) {
	wd := build(t, 0.05, 10, 100)
	wd.eng.Advance(5)
	// Find a doorway domain that holds both root and deep slots anywhere.
	counts := map[string][2]int{} // domain -> [root, deep]
	for _, v := range brands.All() {
		wd.eng.EachSlot(v, func(_, _ int, s *Slot) {
			if !s.Poisoned() {
				return
			}
			c := counts[s.Domain]
			if s.Root {
				c[0]++
			} else {
				c[1]++
			}
			counts[s.Domain] = c
		})
	}
	var victim string
	for dom, c := range counts {
		if c[0] > 0 && c[1] > 0 {
			victim = dom
			break
		}
	}
	if victim == "" {
		t.Skip("no domain with both root and deep slots at this scale")
	}
	wd.eng.Label(victim, 5)
	var rootLabeled, deepLabeled, rootUnlabeled int
	for _, v := range brands.All() {
		wd.eng.EachSlot(v, func(_, _ int, s *Slot) {
			if !s.Poisoned() || s.Domain != victim {
				return
			}
			switch {
			case s.Root && s.Labeled:
				rootLabeled++
			case s.Root && !s.Labeled:
				rootUnlabeled++
			case !s.Root && s.Labeled:
				deepLabeled++
			}
		})
	}
	if rootLabeled == 0 || rootUnlabeled > 0 {
		t.Fatalf("root slots: %d labeled, %d unlabeled", rootLabeled, rootUnlabeled)
	}
	if deepLabeled != 0 {
		t.Fatalf("deep slots must not carry the label, got %d", deepLabeled)
	}
	if d, ok := wd.eng.LabeledOn(victim); !ok || d != 5 {
		t.Fatalf("LabeledOn = %d, %v", d, ok)
	}
}

func TestLabelSurvivesAdvance(t *testing.T) {
	wd := build(t, 0.05, 10, 100)
	wd.eng.Advance(5)
	var victim string
	wd.eng.EachSlot(brands.Uggs, func(_, _ int, s *Slot) {
		if victim == "" && s.Poisoned() && s.Root {
			victim = s.Domain
		}
	})
	if victim == "" {
		t.Skip("no root poisoned slot")
	}
	wd.eng.Label(victim, 5)
	wd.eng.Advance(6)
	found := false
	for _, v := range brands.All() {
		wd.eng.EachSlot(v, func(_, _ int, s *Slot) {
			if s.Poisoned() && s.Domain == victim && s.Root && s.Labeled {
				found = true
			}
		})
	}
	if !found {
		// The slot may have churned out; only fail if the domain is present
		// unlabeled at root.
		for _, v := range brands.All() {
			wd.eng.EachSlot(v, func(_, _ int, s *Slot) {
				if s.Poisoned() && s.Domain == victim && s.Root && !s.Labeled {
					t.Fatal("label lost after Advance")
				}
			})
		}
	}
}

func TestMoonkisTop10Suppression(t *testing.T) {
	wd := build(t, 0.3, 10, 100)
	mk := wd.spec("MOONKIS")
	mid := mk.Top10SuppressedFrom + 10
	wd.eng.Advance(mid - 40) // February: active, not suppressed
	wd.eng.Advance(mid)      // March: suppressed
	var top10, top100 int
	wd.eng.EachSlot(brands.BeatsByDre, func(_, rank int, s *Slot) {
		if s.Poisoned() && s.Doorway.Campaign.Name == "MOONKIS" {
			top100++
			if rank < 10 {
				top10++
			}
		}
	})
	if top100 == 0 {
		t.Fatal("MOONKIS absent from top 100 in March")
	}
	if top10 != 0 {
		t.Fatalf("MOONKIS in top 10 while suppressed: %d slots", top10)
	}
}

func TestSERPCopyIsolated(t *testing.T) {
	wd := build(t, 0.02, 5, 20)
	wd.eng.Advance(3)
	s := wd.eng.SERP(brands.Nike, 0)
	if len(s) != 20 {
		t.Fatalf("serp size = %d", len(s))
	}
	s[0].Domain = "mutated"
	if wd.eng.SERP(brands.Nike, 0)[0].Domain == "mutated" {
		t.Fatal("SERP must return a copy")
	}
	if wd.eng.SERP(brands.Nike, 99) != nil {
		t.Fatal("out-of-range term index must return nil")
	}
}

func TestDeterminism(t *testing.T) {
	a := build(t, 0.02, 8, 40)
	b := build(t, 0.02, 8, 40)
	for d := simclock.Day(0); d < 10; d++ {
		a.eng.Advance(d)
		b.eng.Advance(d)
	}
	for _, v := range brands.All() {
		sa := a.eng.SERP(v, 0)
		sb := b.eng.SERP(v, 0)
		for i := range sa {
			if sa[i].Domain != sb[i].Domain {
				t.Fatalf("nondeterministic engine at %s slot %d", v, i)
			}
		}
	}
}

func TestCapacityMonotoneAndCapped(t *testing.T) {
	if capacity(10, 100) >= capacity(1000, 100) {
		t.Fatal("capacity must grow with pool size")
	}
	if capacity(100000, 100) > 28.01 {
		t.Fatalf("capacity must cap at 28%% of slots: %v", capacity(100000, 100))
	}
	if capacity(0, 100) < 1 {
		t.Fatal("even a tiny campaign can rank a couple of results")
	}
}

func BenchmarkAdvanceDay(b *testing.B) {
	wd := build(b, 0.1, 20, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wd.eng.Advance(simclock.Day(i % 245))
	}
}

// TestSeenDomainsAfterUnsortedRestore: a snapshot whose SeenDomains is out
// of order (made by hand; ExportState writes it sorted) still restores,
// and the exports after it are the full sort of the seen set.
func TestSeenDomainsAfterUnsortedRestore(t *testing.T) {
	a := build(t, 0.02, 4, 20)
	for d := simclock.Day(0); d < 5; d++ {
		a.eng.Advance(d)
	}
	st := a.eng.ExportState()
	st.SeenDomains = slices.Clone(st.SeenDomains)
	slices.Reverse(st.SeenDomains)
	doorways := map[string]*campaign.Doorway{}
	for _, dep := range a.deps {
		for _, dw := range dep.Doorways {
			doorways[dw.Domain] = dw
		}
	}
	b := build(t, 0.02, 4, 20)
	if err := b.eng.RestoreState(st, func(dom string) *campaign.Doorway { return doorways[dom] }); err != nil {
		t.Fatal(err)
	}
	for d := simclock.Day(5); d < 8; d++ {
		b.eng.Advance(d)
		if got, want := b.eng.ExportState().SeenDomains, referenceSeenDomains(b.eng); !slices.Equal(got, want) {
			t.Fatalf("day %d: SeenDomains has %d domains, the full sort %d", d, len(got), len(want))
		}
	}
}

// TestChurnMatchesFullWalk: the end-of-term walk looks up only the slots
// whose domain changed, yet each day's new-domain count equals that of a
// walk over every slot against every domain seen so far. The engine is
// swapped for a restored copy before its first Advance (a day-0 snapshot,
// whose slots were never walked) and mid-run, and demotions expel
// doorways along the way.
func TestChurnMatchesFullWalk(t *testing.T) {
	doorways := map[string]*campaign.Doorway{}
	eng := build(t, 0.02, 6, 30).eng
	restore := func(d simclock.Day) {
		t.Helper()
		b := build(t, 0.02, 6, 30)
		for _, dep := range b.deps {
			for _, dw := range dep.Doorways {
				doorways[dw.Domain] = dw
			}
		}
		if err := b.eng.RestoreState(eng.ExportState(), func(dom string) *campaign.Doorway { return doorways[dom] }); err != nil {
			t.Fatalf("restore before day %d: %v", d, err)
		}
		eng = b.eng
	}
	seen := map[string]bool{}
	for d := simclock.Day(0); d < 60; d++ {
		if d == 0 || d == 30 {
			restore(d)
		}
		if d%10 == 5 {
			var victim string
			eng.EachSlot(brands.Nike, func(_, _ int, s *Slot) {
				if victim == "" && s.Poisoned() {
					victim = s.Domain
				}
			})
			if victim != "" {
				eng.Demote(victim)
			}
		}
		eng.Advance(d)
		want := 0
		for _, v := range brands.All() {
			eng.EachSlot(v, func(_, _ int, s *Slot) {
				if !seen[s.Domain] {
					seen[s.Domain] = true
					want++
				}
			})
		}
		if got, _ := eng.ChurnToday(); got != want {
			t.Fatalf("day %d: %d new domains, a full walk finds %d", d, got, want)
		}
	}
}
