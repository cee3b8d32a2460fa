package experiments

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/brands"
	"repro/internal/classify"
	"repro/internal/core"
)

var (
	once sync.Once
	data *core.Dataset
)

func dataset(t *testing.T) *core.Dataset {
	t.Helper()
	once.Do(func() {
		cfg := core.TestConfig()
		data = core.NewWorld(cfg).Run()
	})
	return data
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "table3", "fig2", "fig3", "fig4",
		"fig5", "fig6", "classifier", "storedetect", "terms", "hackedlabels",
		"seizurelife", "supplier", "transactions", "cnc"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("experiment %d = %s, want %s", i, all[i].ID, id)
		}
		if _, ok := ByID(id); !ok {
			t.Fatalf("ByID(%s) missing", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("bogus id resolved")
	}
	if len(Ablations()) != 5 {
		t.Fatalf("ablations = %d", len(Ablations()))
	}
	if _, ok := AblationByID("abl-l1"); !ok {
		t.Fatal("abl-l1 missing")
	}
}

func TestAllExperimentsRenderNonEmpty(t *testing.T) {
	d := dataset(t)
	for _, e := range All() {
		out := e.Run(d).String()
		if len(out) < 40 {
			t.Errorf("%s renders %d bytes", e.ID, len(out))
		}
		if strings.Contains(out, "%!") {
			t.Errorf("%s has a formatting bug:\n%s", e.ID, out)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	d := dataset(t)
	r := Table1(d)
	if len(r.Rows) != 16 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	tot := r.Totals(d)
	if tot.PSRs == 0 || tot.Doorways == 0 || tot.Stores == 0 {
		t.Fatalf("totals empty: %+v", tot)
	}
	// Heavy verticals must out-poison light ones, as in the paper.
	byV := map[brands.Vertical]Table1Row{}
	for _, row := range r.Rows {
		byV[row.Vertical] = row
	}
	if byV[brands.LouisVuitton].PSRs <= byV[brands.Clarisonic].PSRs {
		t.Fatalf("Louis Vuitton (%d) must out-poison Clarisonic (%d)",
			byV[brands.LouisVuitton].PSRs, byV[brands.Clarisonic].PSRs)
	}
	// Starred verticals are exactly the suggest-seeded three.
	var starred int
	for _, row := range r.Rows {
		if row.Starred {
			starred++
		}
	}
	if starred != 3 {
		t.Fatalf("starred = %d", starred)
	}
}

func TestTable2Shape(t *testing.T) {
	d := dataset(t)
	r := Table2(d)
	if len(r.Rows) == 0 {
		t.Fatal("no campaigns above cutoff")
	}
	names := map[string]Table2Row{}
	for _, row := range r.Rows {
		names[row.Name] = row
		if row.Doorways < r.Cutoff {
			t.Fatalf("%s below cutoff", row.Name)
		}
		if row.PeakDays <= 0 || row.PeakDays > d.StudyDays {
			t.Fatalf("%s peak days = %d", row.Name, row.PeakDays)
		}
	}
	if _, ok := names["KEY"]; !ok {
		t.Fatal("KEY missing from Table 2")
	}
	// KEY operates one of the largest doorway fleets.
	key := names["KEY"]
	var larger int
	for _, row := range r.Rows {
		if row.Doorways > key.Doorways {
			larger++
		}
	}
	if larger > 4 {
		t.Fatalf("KEY doorway fleet rank too low (%d larger)", larger)
	}
}

func TestTable3Shape(t *testing.T) {
	d := dataset(t)
	r := Table3(d)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	gbc, smgpa := r.Rows[0], r.Rows[1]
	if gbc.Cases != 69 || smgpa.Cases != 47 {
		t.Fatalf("cases = %d/%d, want 69/47", gbc.Cases, smgpa.Cases)
	}
	if gbc.Brands != 17 || smgpa.Brands != 11 {
		t.Fatalf("brands = %d/%d", gbc.Brands, smgpa.Brands)
	}
	if gbc.DomainsSeized <= smgpa.DomainsSeized {
		t.Fatal("GBC must seize more domains than SMGPA")
	}
	if gbc.ObservedStores == 0 {
		t.Fatal("no observed store seizures")
	}
	if gbc.ClassifiedStores > gbc.ObservedStores {
		t.Fatal("classified cannot exceed observed")
	}
}

func TestFigure2Shape(t *testing.T) {
	d := dataset(t)
	r := Figure2(d)
	if len(r.Panels) != 4 {
		t.Fatalf("panels = %d", len(r.Panels))
	}
	for _, p := range r.Panels {
		if p.ClassifiedShare <= 0 || p.ClassifiedShare > 1 {
			t.Fatalf("%s classified share = %v", p.Vertical, p.ClassifiedShare)
		}
		if len(p.Stack.Labels) == 0 {
			t.Fatalf("%s has no attribution layers", p.Vertical)
		}
	}
}

func TestFigure3Shape(t *testing.T) {
	d := dataset(t)
	r := Figure3(d)
	if len(r.Rows) != 16 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Top100.Max < row.Top10.Max-20 {
			t.Fatalf("%s: top100 max far below top10 max", row.Vertical)
		}
		if row.Top100.Min < 0 || row.Top10.Min < 0 {
			t.Fatalf("%s: negative poisoning rate", row.Vertical)
		}
	}
}

func TestFigure4KeyCollapse(t *testing.T) {
	d := dataset(t)
	r := Figure4(d)
	if len(r.Panels) != 4 {
		t.Fatalf("panels = %d", len(r.Panels))
	}
	var key *Figure4Panel
	for i := range r.Panels {
		if r.Panels[i].Campaign == "KEY" {
			key = &r.Panels[i]
		}
	}
	if key == nil {
		t.Fatal("KEY panel missing")
	}
	// KEY's orders stop shortly after its PSR collapse (§5.2.1): the rate
	// series must be near zero over the final two months of the study.
	var late float64
	for day := d.StudyDays - 60; day < d.StudyDays; day++ {
		late += key.Rate.At(day)
	}
	var early float64
	for day := 0; day < 60; day++ {
		early += key.Rate.At(day)
	}
	if early == 0 {
		t.Skip("KEY sampled no early orders at this scale")
	}
	if late > early/2 {
		t.Fatalf("KEY order rate early=%v late=%v; want collapse", early, late)
	}
}

func TestFigure4CorrelationPositive(t *testing.T) {
	d := dataset(t)
	r := Figure4(d)
	// At least two campaigns must show positive PSR/order correlation (the
	// paper's central observation).
	var positive int
	for i := range r.Panels {
		if r.Panels[i].Correlation() > 0.2 {
			positive++
		}
	}
	if positive < 2 {
		t.Fatalf("only %d campaigns show PSR/order correlation", positive)
	}
}

func TestFigure5CocoStory(t *testing.T) {
	d := dataset(t)
	r := Figure5(d)
	if r.StoreID == "" {
		t.Fatal("no coco store")
	}
	if len(r.Domains) != 3 || r.Domains[0] != "cocoviphandbags.com" {
		t.Fatalf("coco domains = %v", r.Domains)
	}
	if len(r.Epochs) < 2 {
		t.Fatalf("store never rotated: %+v", r.Epochs)
	}
	// Conversion rate near the paper's 0.7%.
	if r.Conversion < 0.002 || r.Conversion > 0.02 {
		t.Fatalf("conversion = %v", r.Conversion)
	}
	if r.PagesPerVis < 5 || r.PagesPerVis > 6.5 {
		t.Fatalf("pages/visit = %v", r.PagesPerVis)
	}
	if r.ReferrerCoverage <= 0 {
		t.Fatal("no referrer coverage")
	}
}

func TestFigure6SeizureReaction(t *testing.T) {
	d := dataset(t)
	r := Figure6(d)
	if len(r.Stores) != 4 {
		t.Fatalf("stores = %d", len(r.Stores))
	}
	labels := map[string]bool{}
	for _, fs := range r.Stores {
		labels[fs.Label] = true
		if len(fs.Samples) < 3 {
			t.Fatalf("%s has %d samples", fs.Label, len(fs.Samples))
		}
	}
	for _, want := range []string{"abercrombie[uk]", "abercrombie[de]", "hollister[uk]", "woolrich[de]"} {
		if !labels[want] {
			t.Fatalf("missing store %s (have %v)", want, labels)
		}
	}
	// Any seized store of PHP?P= must react within ~a day.
	for _, fs := range r.Stores {
		if fs.SeizedDay >= 0 && fs.ReactDay >= 0 {
			if delta := fs.ReactDay - fs.SeizedDay; delta > 3 {
				t.Fatalf("%s reacted after %d days; php?p= reacts within ~1", fs.Label, delta)
			}
		}
	}
}

func TestClassifierExperiment(t *testing.T) {
	d := dataset(t)
	r := Classifier(d)
	if r.Classes != 52 {
		t.Fatalf("classes = %d", r.Classes)
	}
	if r.CVAccuracy < 0.3 {
		t.Fatalf("cv accuracy = %v", r.CVAccuracy)
	}
	if r.NonzeroW == 0 || r.NonzeroW >= r.TotalW {
		t.Fatalf("sparsity = %d/%d", r.NonzeroW, r.TotalW)
	}
	if len(r.Refinement) == 0 {
		t.Fatal("no refinement rounds")
	}
}

func TestStoreDetectValidation(t *testing.T) {
	d := dataset(t)
	r := StoreDetect(d)
	if r.Sampled == 0 {
		t.Fatal("nothing sampled")
	}
	if r.FalsePositives > r.Sampled/50 {
		t.Fatalf("FP rate too high: %d/%d", r.FalsePositives, r.Sampled)
	}
	fnRate := float64(r.FalseNegatives) / float64(r.Sampled)
	if fnRate > 0.15 {
		t.Fatalf("FN rate = %v", fnRate)
	}
}

func TestTermsExperiment(t *testing.T) {
	d := dataset(t)
	r := Terms(d)
	if r.Verticals == 0 {
		t.Fatal("no verticals compared")
	}
	overlapRate := float64(r.TermOverlap) / float64(r.Verticals*r.TermsPerSet)
	if overlapRate > 0.08 {
		t.Fatalf("term overlap = %v, must be tiny", overlapRate)
	}
	if r.SharedCampaign != len(r.CampaignsKey) {
		t.Fatal("both methodologies must surface the same campaigns")
	}
}

func TestHackedLabelsExperiment(t *testing.T) {
	d := dataset(t)
	r := HackedLabels(d)
	if r.TotalPSRs == 0 {
		t.Fatal("no PSRs")
	}
	cov := r.CoveragePct()
	if cov <= 0 || cov > 25 {
		t.Fatalf("label coverage = %v%%; must be small but nonzero", cov)
	}
	if r.EligiblePSRs < r.LabeledPSRs {
		t.Fatal("eligible must include labeled")
	}
	if r.PolicyGainPct() <= 0 {
		t.Fatal("full-URL policy must gain coverage (root-only gap)")
	}
	if r.DelayMean < float64(10) || r.DelayMean > 40 {
		t.Fatalf("label delay mean = %v, want 13..32-ish", r.DelayMean)
	}
}

func TestSeizureLifeExperiment(t *testing.T) {
	d := dataset(t)
	r := SeizureLife(d)
	if len(r.Firms) != 2 {
		t.Fatalf("firms = %d", len(r.Firms))
	}
	for _, row := range r.Firms {
		if row.ObservedSeizures == 0 {
			t.Fatalf("%s observed nothing", row.FirmKey)
		}
		if row.LifetimeMean < 20 || row.LifetimeMean > 120 {
			t.Fatalf("%s lifetime = %v days", row.FirmKey, row.LifetimeMean)
		}
		if row.Redirected == 0 {
			t.Fatalf("%s: no campaign redirected after seizure", row.FirmKey)
		}
		if row.ReactionMean <= 0 || row.ReactionMean > 30 {
			t.Fatalf("%s reaction = %v days", row.FirmKey, row.ReactionMean)
		}
		// Only a small share of stores is ever seized (paper: 3.9%).
		if row.SeizedShare > 0.5 {
			t.Fatalf("%s seized share = %v", row.FirmKey, row.SeizedShare)
		}
	}
}

func TestSupplierExperiment(t *testing.T) {
	d := dataset(t)
	r := Supplier(d)
	if !r.ScrapeOK {
		t.Fatal("scrape failed")
	}
	if r.Records == 0 || r.Delivered == 0 {
		t.Fatalf("records = %d delivered = %d", r.Records, r.Delivered)
	}
	if float64(r.Delivered)/float64(r.Records) < 0.85 {
		t.Fatal("deliveries must dominate")
	}
	if r.SeizedDest <= r.SeizedSource {
		t.Fatal("destination seizures must dominate source seizures")
	}
	if r.TopRegionsShare < 0.7 {
		t.Fatalf("top regions share = %v", r.TopRegionsShare)
	}
}

func TestTransactionsExperiment(t *testing.T) {
	d := dataset(t)
	r := Transactions(d)
	if r.Purchases == 0 {
		t.Fatal("no purchases")
	}
	if len(r.Banks) == 0 || len(r.Banks) > 3 {
		t.Fatalf("banks = %d", len(r.Banks))
	}
	for _, country := range r.Banks {
		if country != "CN" && country != "KR" {
			t.Fatalf("unexpected bank country %s", country)
		}
	}
}

func TestCnCExperiment(t *testing.T) {
	d := dataset(t)
	r := CnC(d)
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Err != "" {
			t.Fatalf("%s infiltration failed: %s", row.Campaign, row.Err)
		}
		if row.LiveStores == 0 || row.Brands == 0 {
			t.Fatalf("%s directive empty", row.Campaign)
		}
		if row.CrawlCoverage < 0 || row.CrawlCoverage > 1 {
			t.Fatalf("%s coverage = %v", row.Campaign, row.CrawlCoverage)
		}
	}
	// BIGLOVE is the paper's example of a large multi-brand operation.
	for _, row := range r.Rows {
		if row.Campaign == "BIGLOVE" && row.Brands < 2 {
			t.Fatalf("BIGLOVE brands = %d", row.Brands)
		}
	}
}

func TestAblationPayment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := core.TestConfig()
	cfg.TermsPerVertical = 4
	cfg.SlotsPerTerm = 20
	cfg.ExtendedTail = false
	r := AblationPayment(cfg)
	if r.AffectedStores == 0 {
		t.Fatal("no stores on the broken bank")
	}
	if r.InterventionA >= r.BaseAfter {
		t.Fatalf("breaking a bank must cut post-intervention orders: base=%v with=%v",
			r.BaseAfter, r.InterventionA)
	}
}

func TestCampaignSortedByPSRs(t *testing.T) {
	d := dataset(t)
	names := campaignSortedByPSRs(d)
	if len(names) != len(d.Campaigns) {
		t.Fatal("wrong count")
	}
	for i := 1; i < len(names); i++ {
		if d.Campaigns[names[i-1]].PSRTop100.Sum() < d.Campaigns[names[i]].PSRTop100.Sum() {
			t.Fatal("not sorted by PSRs")
		}
	}
}

func TestAblationLabelPolicyAndRegularizers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := core.TestConfig()
	cfg.TermsPerVertical = 4
	cfg.SlotsPerTerm = 20
	cfg.ExtendedTail = false

	lp := AblationLabelPolicy(cfg)
	if lp.Eligible < lp.Labeled {
		t.Fatal("eligible < labeled")
	}
	reg := AblationRegularizers(cfg)
	if len(reg.Rows) != 3 {
		t.Fatalf("rows = %d", len(reg.Rows))
	}
	var l1, none RegularizerRow
	for _, row := range reg.Rows {
		switch row.Reg {
		case 0:
			l1 = row
		case 2:
			none = row
		}
	}
	if l1.Nonzero >= none.Nonzero {
		t.Fatal("L1 must be sparser than unregularised")
	}
}

// TestAblationL1RowIsTheWorldsClassifier checks that the L1 row, taken from
// the world's own classifier, equals a fresh default-options training on the
// world's seed docs.
func TestAblationL1RowIsTheWorldsClassifier(t *testing.T) {
	cfg := core.TestConfig()
	l1 := AblationRegularizers(cfg).Rows[0]
	seed := core.NewWorld(cfg).SeedDocs
	nz, tot := classify.Train(seed, classify.DefaultOptions()).Sparsity()
	want := RegularizerRow{
		Reg:        classify.L1,
		CVAccuracy: classify.CrossValidate(seed, 10, classify.DefaultOptions()),
		Nonzero:    nz,
		Total:      tot,
	}
	if l1 != want {
		t.Fatalf("L1 row = %+v, want %+v", l1, want)
	}
}

func TestAblationNoRender(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := core.TestConfig()
	cfg.TermsPerVertical = 4
	cfg.SlotsPerTerm = 20
	cfg.ExtendedTail = false
	r := AblationNoRender(cfg)
	if r.PSRsWithout >= r.PSRsWith {
		t.Fatalf("rendering must reveal more PSRs: with=%d without=%d",
			r.PSRsWith, r.PSRsWithout)
	}
	if r.IframeCampaignsWithout >= r.IframeCampaignsWith {
		t.Fatalf("iframe campaigns: with=%d without=%d",
			r.IframeCampaignsWith, r.IframeCampaignsWithout)
	}
}
