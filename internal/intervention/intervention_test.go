package intervention

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/brands"
	"repro/internal/campaign"
	"repro/internal/rng"
	"repro/internal/searchsim"
	"repro/internal/simclock"
	"repro/internal/store"
)

func TestFirmsMatchTable3Shape(t *testing.T) {
	fs := Firms()
	if len(fs) != 2 {
		t.Fatalf("firms = %d", len(fs))
	}
	gbc, smgpa := fs[0], fs[1]
	cases := func(f *Firm) (n int) {
		for _, c := range f.Clients {
			n += c
		}
		return n
	}
	if cases(gbc) != 69 || len(gbc.Clients) != 17 {
		t.Fatalf("GBC: %d cases, %d brands; want 69/17", cases(gbc), len(gbc.Clients))
	}
	if cases(smgpa) != 47 || len(smgpa.Clients) != 11 {
		t.Fatalf("SMGPA: %d cases, %d brands; want 47/11", cases(smgpa), len(smgpa.Clients))
	}
	// §5.3 cadence: Uggs and Chanel are GBC's bi-weekly outliers.
	if gbc.Clients["Uggs"] != 19 || gbc.Clients["Chanel"] != 18 || gbc.Clients["Oakley"] != 6 {
		t.Fatal("GBC per-brand case counts changed")
	}
}

func TestCaseScheduleSpansWindow(t *testing.T) {
	gbc := Firms()[0]
	study := simclock.StudyWindow()
	days := gbc.CaseSchedule("Uggs", simclock.SeizureWindow(), study)
	if len(days) != 19 {
		t.Fatalf("Uggs cases = %d", len(days))
	}
	if days[0] >= 0 {
		t.Fatal("the schedule must include pre-study cases (Feb 2012 onward)")
	}
	var inStudy int
	for i := 1; i < len(days); i++ {
		if days[i] < days[i-1] {
			t.Fatal("schedule must be sorted")
		}
		if study.Contains(days[i]) {
			inStudy++
		}
	}
	if inStudy == 0 {
		t.Fatal("some Uggs cases must fall inside the study window")
	}
}

type fixture struct {
	eng    *SeizureEngine
	stores []*store.Store
	byID   map[string]*store.Store
}

func build(t *testing.T) *fixture {
	t.Helper()
	w := simclock.StudyWindow()
	specs := campaign.Roster(w)
	deps := campaign.DeployAll(rng.New(51), specs, 0.03)
	var stores []*store.Store
	r := rng.New(52)
	for _, dep := range deps {
		for _, sd := range dep.Stores {
			stores = append(stores, store.New(sd, r, w.Days()))
		}
	}
	e := NewSeizureEngine(rng.New(53), w, stores, Firms())
	f := &fixture{eng: e, stores: stores, byID: map[string]*store.Store{}}
	for _, st := range stores {
		f.byID[st.ID()] = st
	}
	return f
}

func TestHistoricalCasesMaterialised(t *testing.T) {
	f := build(t)
	var hist int
	for _, c := range f.eng.Cases() {
		if c.Day < 0 {
			hist++
			if len(c.Domains) == 0 {
				t.Fatal("historical case with no domains")
			}
			if len(c.ObservedStoreIDs) != 0 {
				t.Fatal("historical case cannot reference in-study stores")
			}
		}
	}
	if hist == 0 {
		t.Fatal("no historical cases")
	}
}

func TestTickSeizesEligibleStores(t *testing.T) {
	f := build(t)
	// Make every store visible from day 0 so age gates purely on days.
	for _, st := range f.stores {
		f.eng.MarkVisible(st.ID(), 0)
	}
	var seized []string
	f.eng.OnSeize = func(domain string, c *CourtCase) { seized = append(seized, domain) }
	w := simclock.StudyWindow()
	for d := simclock.Day(0); int(d) < w.Days(); d++ {
		f.eng.Tick(d)
	}
	if len(seized) == 0 {
		t.Fatal("no stores seized across the whole study")
	}
	// Every seizure must be recorded on the store and listed in a case.
	inCase := map[string]bool{}
	for _, c := range f.eng.Cases() {
		for _, dom := range c.Domains {
			inCase[dom] = true
		}
	}
	for _, dom := range seized {
		if !inCase[dom] {
			t.Fatalf("seized domain %s not listed in any case", dom)
		}
	}
}

func TestSeizedStoresReactAfterCampaignDelay(t *testing.T) {
	f := build(t)
	for _, st := range f.stores {
		f.eng.MarkVisible(st.ID(), 0)
	}
	type seizeEvt struct {
		day simclock.Day
		st  *store.Store
	}
	seizures := map[string]seizeEvt{}
	f.eng.OnSeize = func(domain string, c *CourtCase) {
		for _, id := range c.ObservedStoreIDs {
			st := f.byID[id]
			if _, dup := seizures[id]; !dup && st.CurrentDomain(c.Day) == domain {
				seizures[id] = seizeEvt{day: c.Day, st: st}
			}
		}
	}
	reactions := map[string]simclock.Day{}
	f.eng.OnReact = func(st *store.Store, newDomain string, day simclock.Day) {
		if _, dup := reactions[st.ID()]; !dup {
			reactions[st.ID()] = day
		}
	}
	w := simclock.StudyWindow()
	for d := simclock.Day(0); int(d) < w.Days(); d++ {
		f.eng.Tick(d)
	}
	if len(seizures) == 0 || len(reactions) == 0 {
		t.Fatalf("seizures=%d reactions=%d", len(seizures), len(reactions))
	}
	for id, evt := range seizures {
		rday, reacted := reactions[id]
		if !reacted {
			continue // exhausted domain pools never react
		}
		want := evt.day + simclock.Day(evt.st.Dep.Campaign.ReactionDays)
		if rday < want {
			t.Fatalf("store %s reacted on day %d before its delay (seized %d, reaction %d days)",
				id, rday, evt.day, evt.st.Dep.Campaign.ReactionDays)
		}
	}
}

func TestSeizureLifetimesReasonable(t *testing.T) {
	f := build(t)
	for _, st := range f.stores {
		f.eng.MarkVisible(st.ID(), 0)
	}
	w := simclock.StudyWindow()
	lifetimes := map[string][]float64{}
	f.eng.OnSeize = func(domain string, c *CourtCase) {
		for _, id := range c.ObservedStoreIDs {
			st := f.byID[id]
			if st.CurrentDomain(c.Day) != domain {
				continue
			}
			first, _ := f.eng.FirstVisible[id], true
			lifetimes[c.Firm.Key] = append(lifetimes[c.Firm.Key], float64(c.Day-first))
		}
	}
	for d := simclock.Day(0); int(d) < w.Days(); d++ {
		f.eng.Tick(d)
	}
	for _, key := range []string{"gbc", "smgpa"} {
		ls := lifetimes[key]
		if len(ls) == 0 {
			t.Fatalf("%s seized nothing", key)
		}
		var sum float64
		for _, l := range ls {
			sum += l
		}
		mean := sum / float64(len(ls))
		// §5.3.2: 58–68 days (GBC), 48–56 (SMGPA). Shapes, not exact values:
		// the mean store lifetime before seizure must be one to three months.
		if mean < 25 || mean > 110 {
			t.Fatalf("%s mean lifetime = %v days", key, mean)
		}
	}
}

func TestPhpCampaignReactsWithinADay(t *testing.T) {
	f := build(t)
	var php *store.Store
	for _, st := range f.stores {
		if st.Dep.Campaign.Name == "PHP?P=" && st.Dep.Label() == "abercrombie[uk]" {
			php = st
		}
	}
	if php == nil {
		t.Fatal("abercrombie[uk] store missing")
	}
	f.eng.MarkVisible(php.ID(), 0)
	// Seize it manually via a synthetic case on day 88 (Feb 9, 2014).
	day := simclock.StudyWindow().MustDay(2014, 2, 9)
	dom := php.CurrentDomain(day)
	php.MarkSeized(dom, day)
	f.eng.pending = append(f.eng.pending, reaction{day: day + simclock.Day(php.Dep.Campaign.ReactionDays), st: php})
	var reactedOn simclock.Day
	f.eng.OnReact = func(st *store.Store, newDomain string, d simclock.Day) {
		if st == php {
			reactedOn = d
		}
	}
	f.eng.Tick(day)
	f.eng.Tick(day + 1)
	if reactedOn != day+1 {
		t.Fatalf("php?p= reacted on day %d, want %d (24h)", reactedOn, day+1)
	}
	if php.CurrentDomain(day+1) == dom {
		t.Fatal("store must be on its backup domain after reacting")
	}
}

func TestLabelerDelaysAndCoverage(t *testing.T) {
	w := simclock.StudyWindow()
	specs := campaign.Roster(w)
	r := rng.New(61)
	deps := campaign.DeployAll(r.Sub("deploy"), specs, 0.05)
	terms := map[brands.Vertical][]string{}
	for _, v := range brands.All() {
		terms[v] = brands.Terms(r.Sub("terms"), v, 10).Terms
	}
	cfg := searchsim.DefaultConfig()
	cfg.TermsPerVertical = 10
	cfg.SlotsPerTerm = 50
	eng := searchsim.New(cfg, r, deps, terms)
	lab := NewLabeler()

	labeledDays := map[string]simclock.Day{}
	for d := simclock.Day(0); d < 120; d++ {
		eng.Advance(d)
		for _, v := range brands.All() {
			eng.EachSlot(v, func(_, _ int, s *searchsim.Slot) {
				if s.Poisoned() {
					lab.Observe(s.Domain, d, s.Root)
				}
			})
		}
		lab.Tick(d, eng, specs, deps)
		for dom := range lab.firstSeen {
			if ld, ok := eng.LabeledOn(dom); ok {
				if _, dup := labeledDays[dom]; !dup {
					labeledDays[dom] = ld
				}
			}
		}
	}
	if len(labeledDays) == 0 {
		t.Fatal("labeler labeled nothing in 120 days")
	}
	// Delay discipline: label day - first ROOT sighting within [min,max]
	// (the detection clock starts when Google sees the hacked root).
	var keyDemoted simclock.Day
	for _, spec := range specs {
		if spec.Name == "KEY" {
			keyDemoted = spec.DemotedOn
		}
	}
	for dom, ld := range labeledDays {
		first, ok := lab.DetectionArmedOn(dom)
		if !ok || ld == keyDemoted {
			// Mass-demotion events (the KEY takedown) label doorways without
			// the root-sighting gate; those are outside the delay policy.
			continue
		}
		delta := int(ld - first)
		if delta < lab.DelayMinDays || delta > lab.DelayMaxDays+1 {
			t.Fatalf("domain %s labeled after %d days, want %d..%d",
				dom, delta, lab.DelayMinDays, lab.DelayMaxDays)
		}
	}
	// Coverage: a small fraction of observed doorways.
	frac := float64(len(labeledDays)) / float64(len(lab.firstSeen))
	if frac > 0.25 {
		t.Fatalf("label coverage = %.2f, policy must be sparse", frac)
	}
}

func TestMassDemotionEvent(t *testing.T) {
	w := simclock.StudyWindow()
	specs := campaign.Roster(w)
	r := rng.New(62)
	deps := campaign.DeployAll(r.Sub("deploy"), specs, 0.03)
	terms := map[brands.Vertical][]string{}
	for _, v := range brands.All() {
		terms[v] = brands.Terms(r.Sub("terms"), v, 5).Terms
	}
	cfg := searchsim.DefaultConfig()
	cfg.TermsPerVertical = 5
	cfg.SlotsPerTerm = 50
	eng := searchsim.New(cfg, r, deps, terms)
	lab := NewLabeler()
	var key *campaign.Deployment
	for _, dep := range deps {
		if dep.Spec.Name == "KEY" {
			key = dep
		}
	}
	// The pipeline has seen the doorways (some at their roots, repeatedly)
	// before the mass event fires.
	for i, dw := range key.Doorways {
		for rep := 0; rep < 4; rep++ {
			lab.Observe(dw.Domain, simclock.Day(1+rep), i%2 == 0)
		}
	}
	lab.Tick(key.Spec.DemotedOn, eng, specs, deps)
	st := eng.ExportState()
	var demoted, labeled int
	for _, dw := range key.Doorways {
		if slices.Contains(st.Demoted, dw.Domain) {
			demoted++
		}
		if _, ok := eng.LabeledOn(dw.Domain); ok {
			labeled++
		}
	}
	if demoted == 0 || labeled == 0 {
		t.Fatalf("mass event: demoted=%d labeled=%d", demoted, labeled)
	}
	if demoted <= labeled {
		t.Fatal("demotion must dominate labeling in the mass event")
	}
}

func TestCaseIDFormat(t *testing.T) {
	id := NewCaseID("gbc", 2014, 7)
	if !strings.Contains(id, "cv") || !strings.Contains(id, "gbc") {
		t.Fatalf("case id = %q", id)
	}
}
