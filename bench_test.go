package searchseizure

// The benchmark harness regenerates every table and figure of the paper.
// Each benchmark reports the experiment's computation time over a shared
// mid-size study (BenchConfig), and — run with -v or inspected via
// bench_output.txt — logs the rendered rows/series the paper reports.
// BenchmarkFullStudy measures an entire end-to-end run (world build, 245+
// crawl days, all interventions) at test scale.

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

var (
	benchOnce sync.Once
	benchData *core.Dataset
)

func benchDataset(b *testing.B) *core.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		benchData = mustRun(b, mustNew(b, BenchConfig()))
	})
	return benchData
}

// benchExperiment times one experiment's computation and logs its output
// once so bench_output.txt doubles as the reproduced results.
func benchExperiment(b *testing.B, id string) {
	d := benchDataset(b)
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = e.Run(d).String()
	}
	b.StopTimer()
	b.Logf("\n%s", out)
}

func BenchmarkTable1Verticals(b *testing.B)      { benchExperiment(b, "table1") }
func BenchmarkTable2Campaigns(b *testing.B)      { benchExperiment(b, "table2") }
func BenchmarkTable3Seizures(b *testing.B)       { benchExperiment(b, "table3") }
func BenchmarkFigure2Attribution(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFigure3Sparklines(b *testing.B)    { benchExperiment(b, "fig3") }
func BenchmarkFigure4OrdersVsPSRs(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFigure5CocoCaseStudy(b *testing.B) { benchExperiment(b, "fig5") }
func BenchmarkFigure6SeizureReaction(b *testing.B) {
	benchExperiment(b, "fig6")
}
func BenchmarkClassifierCV(b *testing.B)        { benchExperiment(b, "classifier") }
func BenchmarkStoreDetection(b *testing.B)      { benchExperiment(b, "storedetect") }
func BenchmarkTermMethodology(b *testing.B)     { benchExperiment(b, "terms") }
func BenchmarkHackedLabelCoverage(b *testing.B) { benchExperiment(b, "hackedlabels") }
func BenchmarkSeizureLifetimes(b *testing.B)    { benchExperiment(b, "seizurelife") }
func BenchmarkSupplierShipments(b *testing.B)   { benchExperiment(b, "supplier") }
func BenchmarkTransactionProbes(b *testing.B)   { benchExperiment(b, "transactions") }
func BenchmarkCnCInfiltration(b *testing.B)     { benchExperiment(b, "cnc") }

// ablationConfig is small: each ablation iteration builds and runs one or
// two complete worlds.
func ablationConfig() Config {
	cfg := TestConfig()
	cfg.TermsPerVertical = 4
	cfg.SlotsPerTerm = 20
	cfg.ExtendedTail = false
	return cfg
}

func benchAblation(b *testing.B, id string) {
	a, ok := experiments.AblationByID(id)
	if !ok {
		b.Fatalf("unknown ablation %s", id)
	}
	cfg := ablationConfig()
	var out string
	for i := 0; i < b.N; i++ {
		out = a.Run(cfg).String()
	}
	b.Logf("\n%s", out)
}

func BenchmarkAblationNoRender(b *testing.B)        { benchAblation(b, "abl-render") }
func BenchmarkAblationRegularizers(b *testing.B)    { benchAblation(b, "abl-l1") }
func BenchmarkAblationLabelPolicy(b *testing.B)     { benchAblation(b, "abl-rootlabel") }
func BenchmarkAblationReactiveSeizure(b *testing.B) { benchAblation(b, "abl-reactive") }
func BenchmarkAblationPayment(b *testing.B)         { benchAblation(b, "abl-payment") }

// BenchmarkFullStudy measures a complete end-to-end run: world build,
// every simulated day (crawl, interventions, demand), finalisation.
func BenchmarkFullStudy(b *testing.B) {
	cfg := ablationConfig()
	for i := 0; i < b.N; i++ {
		d := mustRun(b, mustNew(b, cfg))
		if d.TotalPSRs() == 0 {
			b.Fatal("study produced no PSRs")
		}
	}
}

// BenchmarkSimulatedDay measures one day of the world advancing under full
// observation (the study's steady-state unit of work) on a single observe
// worker — the serial baseline for BenchmarkSimulatedDayParallel.
func BenchmarkSimulatedDay(b *testing.B) {
	cfg := ablationConfig()
	cfg.ObserveWorkers = 1
	s := mustNew(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.World.RunDay(0)
	}
}

// BenchmarkSimulatedDayParallel runs the same day with the observe phase
// fanned out across every core. The serial/parallel ratio is the day
// pipeline's speedup; on a single-core machine the two should be equal
// (the one-worker path runs inline, no goroutines).
func BenchmarkSimulatedDayParallel(b *testing.B) {
	cfg := ablationConfig()
	cfg.ObserveWorkers = runtime.NumCPU()
	cfg.CrawlWorkers = runtime.NumCPU()
	s := mustNew(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.World.RunDay(0)
	}
}

// BenchmarkSimulatedDayTelemetry is BenchmarkSimulatedDayParallel with a
// live telemetry registry attached: the delta between the two is the whole
// cost of the observability layer on the hot path (atomic counter bumps,
// span clock reads, pool utilisation accounting). The contract — asserted
// in CI via cmd/benchjson — is that it stays under 2%.
func BenchmarkSimulatedDayTelemetry(b *testing.B) {
	cfg := ablationConfig()
	cfg.ObserveWorkers = runtime.NumCPU()
	cfg.CrawlWorkers = runtime.NumCPU()
	cfg.Telemetry = telemetry.New()
	s := mustNew(b, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.World.RunDay(0)
	}
}

// BenchmarkSimulatedDayFaultsOff is BenchmarkSimulatedDayParallel with the
// fault-injection layer explicitly disabled (the zero faults.Config): the
// delta against BenchmarkSimulatedDayParallel is the cost of having the
// fault hook in the codebase, which must be nil — the disabled path builds
// no plan, wraps no fetcher, and allocates nothing per request.
func BenchmarkSimulatedDayFaultsOff(b *testing.B) {
	cfg := ablationConfig()
	cfg.ObserveWorkers = runtime.NumCPU()
	cfg.CrawlWorkers = runtime.NumCPU()
	cfg.Faults = faults.Config{}
	s := mustNew(b, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.World.RunDay(0)
	}
}

// BenchmarkSimulatedDayFaultsModerate is the contrast: the same day under
// the moderate injection profile, paying for the per-request hash rolls,
// retries and breaker accounting. It bounds what a robustness study costs.
func BenchmarkSimulatedDayFaultsModerate(b *testing.B) {
	cfg := ablationConfig()
	cfg.ObserveWorkers = runtime.NumCPU()
	cfg.CrawlWorkers = runtime.NumCPU()
	cfg.Faults, _ = faults.Profile("moderate")
	s := mustNew(b, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.World.RunDay(0)
	}
}
