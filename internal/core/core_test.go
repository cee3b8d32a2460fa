package core

import (
	"testing"

	"repro/internal/brands"
	"repro/internal/simclock"
)

// runSmall runs a miniature end-to-end study once per test binary.
var smallData *Dataset

func small(t *testing.T) *Dataset {
	t.Helper()
	if smallData == nil {
		cfg := TestConfig()
		w := NewWorld(cfg)
		smallData = w.Run()
	}
	return smallData
}

func TestWorldConstruction(t *testing.T) {
	d := small(t)
	w := d.World()
	if len(w.Specs) != 52 {
		t.Fatalf("named campaigns = %d", len(w.Specs))
	}
	if len(w.Tail) != w.Cfg.TailCampaigns {
		t.Fatalf("tail campaigns = %d", len(w.Tail))
	}
	if len(w.Stores) == 0 || w.Web.Domains() == 0 {
		t.Fatal("empty world")
	}
	if w.Classifier == nil || w.CVAccuracy <= 0.3 {
		t.Fatalf("classifier CV accuracy = %v", w.CVAccuracy)
	}
}

func TestStudyProducesPSRs(t *testing.T) {
	d := small(t)
	if d.TotalPSRs() == 0 {
		t.Fatal("no PSRs observed")
	}
	if d.TotalDoorways() == 0 || d.TotalStores() == 0 {
		t.Fatalf("doorways=%d stores=%d", d.TotalDoorways(), d.TotalStores())
	}
	// Every vertical must see some poisoning at some point.
	var poisonedVerticals int
	for _, v := range brands.All() {
		if d.Verticals[v].PSRObservations > 0 {
			poisonedVerticals++
		}
	}
	if poisonedVerticals < 12 {
		t.Fatalf("only %d verticals poisoned", poisonedVerticals)
	}
}

func TestAttributionSplitsKnownAndUnknown(t *testing.T) {
	d := small(t)
	share := d.AttributedShare()
	// Paper: 58% attributed to the 52 campaigns. Demand a majority but not
	// everything (the tail must show up as unknown).
	if share < 0.35 || share > 0.92 {
		t.Fatalf("attributed share = %v", share)
	}
	if len(d.Campaigns) == 0 {
		t.Fatal("no campaigns attributed")
	}
	for name := range d.Campaigns {
		if name == Unknown {
			t.Fatal("unknown bucket must not appear in campaign observations")
		}
		if _, ok := d.GroundTruthSpec(name); !ok {
			t.Fatalf("attributed campaign %q not in roster", name)
		}
	}
}

func TestKeyCollapseVisibleInDataset(t *testing.T) {
	d := small(t)
	key, ok := d.Campaigns["KEY"]
	if !ok {
		t.Skip("KEY not attributed at this scale")
	}
	w := d.World()
	var spec = w.Specs[0]
	for _, s := range w.Specs {
		if s.Name == "KEY" {
			spec = s
		}
	}
	var before, after float64
	for dd := spec.DemotedOn - 20; dd < spec.DemotedOn; dd++ {
		before += key.PSRTop100.At(int(dd))
	}
	for dd := spec.DemotedOn + 10; dd < spec.DemotedOn+30; dd++ {
		after += key.PSRTop100.At(int(dd))
	}
	if before == 0 {
		t.Skip("KEY invisible before demotion at this scale")
	}
	if after > before/2 {
		t.Fatalf("KEY PSRs before=%v after=%v; want collapse", before, after)
	}
}

func TestSeizuresObservedAndReactionsFollow(t *testing.T) {
	d := small(t)
	if len(d.Seizures) == 0 {
		t.Fatal("no seizures in study")
	}
	if len(d.Reactions) == 0 {
		t.Fatal("no campaign reactions")
	}
	// Reactions must re-point to domains that are live store domains.
	w := d.World()
	for _, r := range d.Reactions {
		if _, ok := w.storesByID[r.StoreID]; !ok {
			t.Fatalf("reaction for unknown store %s", r.StoreID)
		}
		if r.NewDomain == "" {
			t.Fatal("reaction with empty domain")
		}
	}
}

func TestPurchasePairCollectedSeries(t *testing.T) {
	d := small(t)
	if len(d.SampledOrders) == 0 {
		t.Fatal("no purchase-pair series")
	}
	var withDelta int
	for _, os := range d.SampledOrders {
		if os.TotalDelta > 0 {
			withDelta++
		}
		for day := 0; day < d.SimDays; day++ {
			if os.Rates.At(day) < 0 {
				t.Fatal("negative order rate")
			}
		}
	}
	if withDelta == 0 {
		t.Fatal("no store accumulated orders")
	}
}

func TestLabelsAppliedWithinPolicyDelay(t *testing.T) {
	d := small(t)
	if len(d.DoorLabeledOn) == 0 {
		t.Skip("no labels at this scale")
	}
	w := d.World()
	for dom, ld := range d.DoorLabeledOn {
		if first, ok := w.Labeler.DetectionArmedOn(dom); ok {
			delta := int(ld - first)
			if delta < 0 || delta > w.Labeler.DelayMaxDays+2 {
				t.Fatalf("label delay for %s = %d days", dom, delta)
			}
		}
	}
}

func TestChurnRecorded(t *testing.T) {
	d := small(t)
	// After the first few days churn must settle low.
	var frac float64
	var n int
	for day := 30; day < d.StudyDays; day++ {
		if d.ChurnTotal.At(day) > 0 {
			frac += d.ChurnNew.At(day) / d.ChurnTotal.At(day)
			n++
		}
	}
	if n == 0 {
		t.Fatal("no churn records")
	}
	if avg := frac / float64(n); avg > 0.15 {
		t.Fatalf("average churn = %v, want low (paper: 1.84%%)", avg)
	}
}

func TestVerticalSeriesBounded(t *testing.T) {
	d := small(t)
	for _, v := range brands.All() {
		vo := d.Verticals[v]
		for day := 0; day < d.SimDays; day++ {
			for _, s := range []float64{
				vo.Top10PoisonedPct.At(day),
				vo.Top100PoisonedPct.At(day),
				vo.PenalizedPct.At(day),
			} {
				if s < 0 || s > 100 {
					t.Fatalf("%s day %d: percentage out of range: %v", v, day, s)
				}
			}
		}
	}
}

func TestTrafficDrivesStoreOrders(t *testing.T) {
	d := small(t)
	w := d.World()
	var totalOrders float64
	for _, st := range w.Stores {
		totalOrders += st.Snapshot().Orders[0:d.SimDays][0]
		for _, o := range st.OrderSeries() {
			totalOrders += o
		}
	}
	if totalOrders == 0 {
		t.Fatal("no customer orders generated")
	}
}

func TestExtendedWindowCoversFigure5(t *testing.T) {
	d := small(t)
	if d.SimDays <= d.StudyDays {
		t.Fatal("extended tail missing")
	}
	w := d.World()
	aug := w.Sim.DayOf(simclock.ExtendedWindow().End)
	if !w.Sim.Contains(aug) {
		t.Fatal("simulation must reach 2014-08-31")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := TestConfig()
	cfg.TermsPerVertical = 3
	cfg.SlotsPerTerm = 20
	a := NewWorld(cfg).Run()
	b := NewWorld(cfg).Run()
	if a.TotalPSRs() != b.TotalPSRs() {
		t.Fatalf("PSR totals differ: %d vs %d", a.TotalPSRs(), b.TotalPSRs())
	}
	if a.TotalStores() != b.TotalStores() || a.TotalDoorways() != b.TotalDoorways() {
		t.Fatal("store/doorway totals differ across identical runs")
	}
	if len(a.Seizures) != len(b.Seizures) {
		t.Fatal("seizure counts differ")
	}
}
