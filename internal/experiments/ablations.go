package experiments

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/metrics"
)

// Ablation is an experiment that re-runs (part of) the study under an
// alternate design choice. Ablations take a base config because they build
// their own worlds.
type Ablation struct {
	ID    string
	Title string
	Run   func(base core.Config) fmt.Stringer
}

// Ablations returns the design-choice studies DESIGN.md calls out.
func Ablations() []Ablation {
	return []Ablation{
		{"abl-render", "detection without rendering (Dagger-only vs +VanGogh)",
			func(cfg core.Config) fmt.Stringer { return AblationNoRender(cfg) }},
		{"abl-l1", "classifier regularisation: L1 vs L2 vs none",
			func(cfg core.Config) fmt.Stringer { return AblationRegularizers(cfg) }},
		{"abl-rootlabel", "root-only vs full-URL hacked labeling",
			func(cfg core.Config) fmt.Stringer { return AblationLabelPolicy(cfg) }},
		{"abl-reactive", "bulk periodic vs reactive seizures",
			func(cfg core.Config) fmt.Stringer { return AblationReactiveSeizure(cfg) }},
		{"abl-payment", "payment-level intervention (break one acquiring bank)",
			func(cfg core.Config) fmt.Stringer { return AblationPayment(cfg) }},
	}
}

// AblationByID returns the ablation with the given id.
func AblationByID(id string) (Ablation, bool) {
	for _, a := range Ablations() {
		if a.ID == id {
			return a, true
		}
	}
	return Ablation{}, false
}

// NoRenderResult quantifies the iframe-cloaking blind spot of diff-only
// detection (§3.1.1's motivation for VanGogh).
type NoRenderResult struct {
	PSRsWith    int64
	PSRsWithout int64
	// IframeCampaignsWith/Without count iframe-cloaking campaigns detected.
	IframeCampaignsWith    int
	IframeCampaignsWithout int
}

// AblationNoRender runs the study twice — with and without the rendering
// crawler — and compares what detection sees.
func AblationNoRender(base core.Config) *NoRenderResult {
	with := base
	with.VanGogh = true
	without := base
	without.VanGogh = false
	without.RenderOnDagger = false

	dWith := core.NewWorld(with).Run()
	dWithout := core.NewWorld(without).Run()

	count := func(d *core.Dataset) (int64, int) {
		var iframeCampaigns int
		for name := range d.Campaigns {
			if spec, ok := d.GroundTruthSpec(name); ok && spec.Cloaking == campaign.IframeCloaking {
				iframeCampaigns++
			}
		}
		return d.TotalPSRs(), iframeCampaigns
	}
	res := &NoRenderResult{}
	res.PSRsWith, res.IframeCampaignsWith = count(dWith)
	res.PSRsWithout, res.IframeCampaignsWithout = count(dWithout)
	return res
}

// String implements fmt.Stringer.
func (r *NoRenderResult) String() string {
	missed := 0.0
	if r.PSRsWith > 0 {
		missed = 100 * float64(r.PSRsWith-r.PSRsWithout) / float64(r.PSRsWith)
	}
	return fmt.Sprintf(`ablation: diff-only detection vs rendering (VanGogh)
PSRs with rendering:        %s
PSRs without rendering:     %s  (%.1f%% of PSRs invisible without rendering)
iframe campaigns detected:  %d with rendering, %d without
`, commas(r.PSRsWith), commas(r.PSRsWithout), missed,
		r.IframeCampaignsWith, r.IframeCampaignsWithout)
}

// RegularizerResult compares penalties on the classification task.
type RegularizerResult struct {
	Rows []RegularizerRow
}

// RegularizerRow is one penalty's outcome.
type RegularizerRow struct {
	Reg        classify.Regularizer
	CVAccuracy float64
	Nonzero    int
	Total      int
}

// AblationRegularizers trains the campaign classifier under L1, L2 and no
// regularisation on the same corpus (§4.2.2's choice of L1 for sparse,
// interpretable models). The L1 row is the world's own classifier, which
// NewWorld already cross-validated and trained with the default options on
// the same seed docs.
func AblationRegularizers(base core.Config) *RegularizerResult {
	w := core.NewWorld(base)
	nz, tot := w.Classifier.Sparsity()
	res := &RegularizerResult{Rows: []RegularizerRow{
		{Reg: classify.L1, CVAccuracy: w.CVAccuracy, Nonzero: nz, Total: tot},
	}}
	for _, reg := range []classify.Regularizer{classify.L2, classify.NoReg} {
		opts := classify.DefaultOptions()
		opts.Reg = reg
		acc := classify.CrossValidate(w.SeedDocs, 10, opts)
		nz, tot := classify.Train(w.SeedDocs, opts).Sparsity()
		res.Rows = append(res.Rows, RegularizerRow{Reg: reg, CVAccuracy: acc, Nonzero: nz, Total: tot})
	}
	return res
}

// String implements fmt.Stringer.
func (r *RegularizerResult) String() string {
	t := &table{header: []string{"Penalty", "10-fold CV acc", "Nonzero weights", "Sparsity"}}
	for _, row := range r.Rows {
		t.add(row.Reg.String(),
			fmt.Sprintf("%.1f%%", 100*row.CVAccuracy),
			fmt.Sprintf("%d / %d", row.Nonzero, row.Total),
			fmt.Sprintf("%.1f%%", 100*float64(row.Nonzero)/float64(max(1, row.Total))))
	}
	return "ablation: classifier regularisation (the paper uses L1 for interpretable sparse signatures)\n\n" + t.String()
}

// LabelPolicyResult quantifies the root-only labeling policy cost from the
// observational data (no re-run needed: eligibility was recorded).
type LabelPolicyResult struct {
	Labeled  int64
	Eligible int64
	GainPct  float64
}

// AblationLabelPolicy compares coverage under the root-only policy with the
// counterfactual full-URL policy (§5.2.2: 68,193 labeled vs 102,104
// labelable, +49%).
func AblationLabelPolicy(base core.Config) *LabelPolicyResult {
	d := core.NewWorld(base).Run()
	hl := HackedLabels(d)
	return &LabelPolicyResult{
		Labeled:  hl.LabeledPSRs,
		Eligible: hl.EligiblePSRs,
		GainPct:  hl.PolicyGainPct(),
	}
}

// String implements fmt.Stringer.
func (r *LabelPolicyResult) String() string {
	return fmt.Sprintf(`ablation: root-only vs full-URL hacked labeling (paper: +49%% more results labelable)
labeled under root-only policy:  %s
labelable under full-URL policy: %s
coverage gain:                   +%.0f%%
`, commas(r.Labeled), commas(r.Eligible), r.GainPct)
}

// ReactiveSeizureResult compares store lifetimes under bulk periodic vs
// reactive seizure strategies.
type ReactiveSeizureResult struct {
	BulkLifetime     float64
	ReactiveLifetime float64
	BulkSeized       int
	ReactiveSeized   int
	BulkOrders       float64
	ReactiveOrders   float64
}

// AblationReactiveSeizure runs the study under both seizure postures and
// compares how long stores survive and how many orders the ecosystem books.
func AblationReactiveSeizure(base core.Config) *ReactiveSeizureResult {
	bulk := base
	bulk.ReactiveSeizures = false
	reactive := base
	reactive.ReactiveSeizures = true

	run := func(cfg core.Config) (float64, int, float64) {
		w := core.NewWorld(cfg)
		d := w.Run()
		var lifetimes []float64
		var seized int
		for _, s := range d.Seizures {
			if !s.SeenInPSRs || s.StoreID == "" {
				continue
			}
			seized++
			if first, ok := d.StoreFirstSeen[s.Domain]; ok && s.Day >= first {
				lifetimes = append(lifetimes, float64(s.Day-first))
			}
		}
		mean, _ := metrics.MeanStddev(lifetimes)
		var orders float64
		for _, st := range w.Stores {
			for _, o := range st.OrderSeries() {
				orders += o
			}
		}
		return mean, seized, orders
	}
	res := &ReactiveSeizureResult{}
	res.BulkLifetime, res.BulkSeized, res.BulkOrders = run(bulk)
	res.ReactiveLifetime, res.ReactiveSeized, res.ReactiveOrders = run(reactive)
	return res
}

// String implements fmt.Stringer.
func (r *ReactiveSeizureResult) String() string {
	var b strings.Builder
	b.WriteString("ablation: bulk periodic vs reactive seizures (§5.3 argues current practice is too slow and too sparse)\n\n")
	t := &table{header: []string{"Posture", "Observed seizures", "Store lifetime (d)", "Ecosystem orders"}}
	t.add("bulk (paper)", fmt.Sprintf("%d", r.BulkSeized),
		fmt.Sprintf("%.1f", r.BulkLifetime), fmt.Sprintf("%.0f", r.BulkOrders))
	t.add("reactive", fmt.Sprintf("%d", r.ReactiveSeized),
		fmt.Sprintf("%.1f", r.ReactiveLifetime), fmt.Sprintf("%.0f", r.ReactiveOrders))
	b.WriteString(t.String())
	return b.String()
}
