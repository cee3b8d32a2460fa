package campaign

import (
	"testing"
	"time"

	"repro/internal/brands"
	"repro/internal/rng"
	"repro/internal/simclock"
)

func roster(t *testing.T) []*Spec {
	t.Helper()
	return Roster(simclock.StudyWindow())
}

func TestRosterHas52Campaigns(t *testing.T) {
	specs := roster(t)
	if len(specs) != 52 {
		t.Fatalf("roster has %d campaigns, want 52", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name] {
			t.Fatalf("duplicate campaign %q", s.Name)
		}
		seen[s.Name] = true
	}
}

func TestTable2CountsPreserved(t *testing.T) {
	byName := ByName(roster(t))
	cases := []struct {
		name                            string
		doorways, stores, nbrands, peak int
	}{
		{"KEY", 1980, 97, 28, 65},
		{"MSVALIDATE", 530, 98, 6, 52},
		{"BIGLOVE", 767, 92, 30, 92},
		{"MOONKIS", 95, 7, 4, 99},
		{"VERA", 155, 38, 12, 156},
		{"PHP?P=", 255, 55, 24, 96},
		{"NEWSORG", 926, 7, 5, 24},
		{"TIFFANY.0", 26, 1, 1, 4},
	}
	for _, c := range cases {
		s, ok := byName[c.name]
		if !ok {
			t.Fatalf("campaign %q missing", c.name)
		}
		if s.Doorways != c.doorways || s.Stores != c.stores ||
			s.Brands != c.nbrands || s.PeakDays != c.peak {
			t.Errorf("%s = {%d %d %d %d}, want {%d %d %d %d}", c.name,
				s.Doorways, s.Stores, s.Brands, s.PeakDays,
				c.doorways, c.stores, c.nbrands, c.peak)
		}
	}
}

func TestKeyTargetsThirteenVerticals(t *testing.T) {
	key := ByName(roster(t))["KEY"]
	if len(key.Verticals) != 13 {
		t.Fatalf("KEY targets %d verticals, want 13", len(key.Verticals))
	}
	for _, v := range key.Verticals {
		if v.SuggestSeeded() {
			t.Errorf("KEY must not target starred vertical %s", v)
		}
	}
}

func TestEveryVerticalTargeted(t *testing.T) {
	specs := roster(t)
	for _, v := range brands.All() {
		n := 0
		for _, s := range specs {
			if s.Targets(v) {
				n++
			}
		}
		if n == 0 {
			t.Errorf("vertical %s targeted by no campaign", v)
		}
	}
}

func TestFigure2CampaignPresence(t *testing.T) {
	// The campaigns plotted per vertical in Figure 2 must target those
	// verticals.
	byName := ByName(roster(t))
	checks := map[string][]brands.Vertical{
		"KEY":        {brands.Abercrombie, brands.BeatsByDre},
		"PHP?P=":     {brands.Abercrombie},
		"MOONKIS":    {brands.BeatsByDre},
		"NEWSORG":    {brands.BeatsByDre},
		"JSUS":       {brands.BeatsByDre, brands.Uggs},
		"PAULSIMON":  {brands.BeatsByDre},
		"MOKLELE":    {brands.LouisVuitton},
		"NORTHFACEC": {brands.LouisVuitton},
		"LV.0":       {brands.LouisVuitton},
		"MSVALIDATE": {brands.LouisVuitton, brands.Uggs},
		"UGGS.0":     {brands.Uggs},
		"BIGLOVE":    {brands.LouisVuitton, brands.Uggs},
	}
	for name, vs := range checks {
		s := byName[name]
		if s == nil {
			t.Fatalf("campaign %q missing", name)
		}
		for _, v := range vs {
			if !s.Targets(v) {
				t.Errorf("%s must target %s", name, v)
			}
		}
	}
}

func TestKeys(t *testing.T) {
	cases := map[string]string{
		"KEY": "key", "PHP?P=": "php?p=", "SCHEMA.ORG": "schema.org",
		"LV.0": "lv.0", "MINOR.07": "minor.07",
	}
	for name, want := range cases {
		if got := keyOf(name); got != want {
			t.Errorf("keyOf(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestKeyAllocFree is the alloc gate for campaign keys: the search engine
// and the world look a key up per SERP slot and per doorway, so a roster
// or tail spec returns the key its builder computed, and a spec built as a
// literal still gets one.
func TestKeyAllocFree(t *testing.T) {
	w := simclock.StudyWindow()
	for _, s := range append(Roster(w), TailRoster(w, 3)...) {
		var got string
		if allocs := testing.AllocsPerRun(100, func() { got = s.Key() }); allocs != 0 {
			t.Errorf("%s: Key allocates %v/op, want 0", s.Name, allocs)
		}
		if want := keyOf(s.Name); got != want {
			t.Errorf("%s: Key() = %q, want %q", s.Name, got, want)
		}
	}
	if got := (&Spec{Name: "PHP?P="}).Key(); got != "php?p=" {
		t.Errorf("literal spec Key() = %q, want php?p=", got)
	}
}

func TestIntensityShape(t *testing.T) {
	w := simclock.StudyWindow()
	vera := ByName(Roster(w))["VERA"]
	v := vera.Verticals[0]
	peakMid := vera.PeakFrom + simclock.Day(vera.PeakDays/2)
	if pi := vera.Intensity(v, peakMid); pi < 0.5 {
		t.Fatalf("peak intensity = %v, want >= 0.5", pi)
	}
	before := vera.Intensity(v, vera.PeakFrom-30)
	if before >= vera.Intensity(v, peakMid) {
		t.Fatal("baseline must be below peak")
	}
	if vera.Intensity(brands.Clarisonic, peakMid) != 0 {
		t.Fatal("intensity for untargeted vertical must be 0")
	}
	for d := simclock.Day(0); int(d) < w.Days(); d++ {
		i := vera.Intensity(v, d)
		if i < 0 || i > 1 {
			t.Fatalf("intensity out of range on day %d: %v", d, i)
		}
	}
}

func TestKeyCollapseAfterDemotion(t *testing.T) {
	w := simclock.StudyWindow()
	key := ByName(Roster(w))["KEY"]
	before := key.Intensity(brands.BeatsByDre, key.DemotedOn-10)
	after := key.Intensity(brands.BeatsByDre, key.DemotedOn+10)
	if after >= before*0.2 {
		t.Fatalf("KEY after demotion = %v, before = %v; want collapse", after, before)
	}
	if !key.OrdersHalted(key.DemotedOn + 20) {
		t.Fatal("KEY orders must halt after demotion")
	}
	if key.OrdersHalted(key.DemotedOn - 1) {
		t.Fatal("KEY orders must not halt before demotion")
	}
}

func TestMoonkisSchedule(t *testing.T) {
	w := simclock.StudyWindow()
	mk := ByName(Roster(w))["MOONKIS"]
	// Inactive in 2013, active and suppressed-in-top10 during March 2014.
	nov := w.MustDay(2013, time.November, 20)
	if mk.Intensity(brands.BeatsByDre, nov) != 0 {
		t.Fatal("MOONKIS must be inactive before January")
	}
	march := w.MustDay(2014, time.March, 15)
	if mk.Intensity(brands.BeatsByDre, march) <= 0 {
		t.Fatal("MOONKIS must be active in March")
	}
	if !mk.Top10Suppressed(march) {
		t.Fatal("MOONKIS must be top-10 suppressed in March")
	}
	if mk.Top10Suppressed(w.MustDay(2014, time.February, 1)) {
		t.Fatal("MOONKIS must not be suppressed in February")
	}
}

func TestDeployCounts(t *testing.T) {
	w := simclock.StudyWindow()
	spec := ByName(Roster(w))["MSVALIDATE"]
	r := rng.New(1)
	used := map[string]bool{}
	d := Deploy(r, spec, 0.1, used)
	wantD, wantS := 53, 10
	if len(d.Doorways) != wantD {
		t.Fatalf("doorways = %d, want %d", len(d.Doorways), wantD)
	}
	if len(d.Stores) != wantS {
		t.Fatalf("stores = %d, want %d", len(d.Stores), wantS)
	}
}

func TestDeployDomainsUnique(t *testing.T) {
	w := simclock.StudyWindow()
	r := rng.New(2)
	deps := DeployAll(r, Roster(w), 0.05)
	seen := map[string]string{}
	for _, dep := range deps {
		for _, dw := range dep.Doorways {
			if owner, dup := seen[dw.Domain]; dup {
				t.Fatalf("domain %q used by %s and %s", dw.Domain, owner, dw.ID)
			}
			seen[dw.Domain] = dw.ID
		}
		for _, st := range dep.Stores {
			for _, dom := range st.Domains {
				if owner, dup := seen[dom]; dup {
					t.Fatalf("domain %q used by %s and %s", dom, owner, st.ID)
				}
				seen[dom] = st.ID
			}
		}
	}
}

func TestDeployDeterministic(t *testing.T) {
	w := simclock.StudyWindow()
	a := DeployAll(rng.New(9), Roster(w), 0.02)
	b := DeployAll(rng.New(9), Roster(w), 0.02)
	for i := range a {
		if len(a[i].Doorways) != len(b[i].Doorways) {
			t.Fatal("nondeterministic doorway count")
		}
		for j := range a[i].Doorways {
			if a[i].Doorways[j].Domain != b[i].Doorways[j].Domain {
				t.Fatal("nondeterministic doorway domains")
			}
		}
	}
}

func TestScriptedBigloveStore(t *testing.T) {
	w := simclock.StudyWindow()
	r := rng.New(3)
	spec := ByName(Roster(w))["BIGLOVE"]
	d := Deploy(r, spec, 0.01, map[string]bool{}) // tiny scale
	if len(d.Stores) == 0 {
		t.Fatal("no stores")
	}
	coco := d.Stores[0]
	if coco.Brand != "Chanel" {
		t.Fatalf("scripted coco store missing: %+v", coco)
	}
	// The paper observed the store on the coco*.com domains late in its
	// life (Jun-Aug 2014): three generated domains precede them, and a
	// generated tail follows.
	if coco.Domains[3] != "cocoviphandbags.com" ||
		coco.Domains[4] != "cocovipbags.com" || coco.Domains[5] != "cocolovebags.com" {
		t.Fatalf("coco rotation domains wrong: %v", coco.Domains)
	}
	if len(coco.Domains) < 8 {
		t.Fatalf("coco store needs lead and tail domains: %v", coco.Domains)
	}
}

func TestScriptedPhpStores(t *testing.T) {
	w := simclock.StudyWindow()
	r := rng.New(4)
	spec := ByName(Roster(w))["PHP?P="]
	d := Deploy(r, spec, 0.01, map[string]bool{})
	if len(d.Stores) < 4 {
		t.Fatalf("scripted php?p= stores missing, got %d", len(d.Stores))
	}
	labels := []string{d.Stores[0].Label(), d.Stores[1].Label(), d.Stores[2].Label(), d.Stores[3].Label()}
	want := []string{"abercrombie[uk]", "abercrombie[de]", "hollister[uk]", "woolrich[de]"}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels = %v, want %v", labels, want)
		}
	}
	if d.Stores[0].Campaign.ReactionDays != 1 {
		t.Fatal("php?p= must react to seizures within a day")
	}
}

func TestStoresHaveBackupDomains(t *testing.T) {
	w := simclock.StudyWindow()
	deps := DeployAll(rng.New(5), Roster(w), 0.02)
	for _, dep := range deps {
		for _, st := range dep.Stores {
			if len(st.Domains) < 2 {
				t.Fatalf("store %s has no backups: %v", st.ID, st.Domains)
			}
		}
	}
}

func TestCloakingModeString(t *testing.T) {
	if RedirectCloaking.String() != "redirect" || IframeCloaking.String() != "iframe" ||
		UserAgentCloaking.String() != "user-agent" {
		t.Fatal("cloaking mode names changed")
	}
}

func TestIframeCloakingPresent(t *testing.T) {
	// §3.1.1 found iframe cloaking pervasive; a healthy share of the
	// roster must use it.
	var n int
	for _, s := range roster(t) {
		if s.Cloaking == IframeCloaking {
			n++
		}
	}
	if n < 5 {
		t.Fatalf("only %d campaigns use iframe cloaking", n)
	}
}

func TestRotationConfigured(t *testing.T) {
	bl := ByName(roster(t))["BIGLOVE"]
	if bl.RotationDays == 0 {
		t.Fatal("BIGLOVE must rotate domains proactively")
	}
}
