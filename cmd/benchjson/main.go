// Command benchjson runs the day-pipeline benchmark suite through
// testing.Benchmark and writes the results as machine-readable JSON
// (BENCH_0.json by default), so CI can archive per-commit numbers and
// diff them across runs.
//
// Beyond the raw timings the report carries the observability layer's two
// contract numbers: telemetry_overhead_pct compares the day pipeline with a
// live telemetry registry against the no-op sink (CI asserts it stays under
// 2%), and the telemetry block is a full metrics snapshot from a
// faults-moderate study so counter regressions (retry storms, cache-hit
// collapses) show up in the archived JSON diffs.
//
// The report's "metrics" block is the ratchet surface: -baseline compares
// it against a checked-in bench.baseline.json and exits non-zero when any
// ratcheted metric regresses past its slack (throughput down, allocs up,
// sslint wall time up). Telemetry overhead rides along in the baseline for
// context but is gated by its own < 2% contract, not the ratchet.
//
// Usage:
//
//	benchjson [-o BENCH_0.json] [-samples 3] [-baseline bench.baseline.json]
//	benchjson -write-baseline [-baseline bench.baseline.json]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	searchseizure "repro"
	"repro/internal/campaign"
	"repro/internal/checkpoint"
	"repro/internal/htmlgen"
	"repro/internal/htmlparse"
	"repro/internal/lint"
	"repro/internal/lint/load"
	"repro/internal/rng"
	"repro/internal/simclock"
	"repro/internal/studysvc"
	"repro/internal/telemetry"
)

// result is one benchmark's measurements in flat JSON-friendly form.
type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// metrics is the ratchet surface: the handful of numbers the baseline
// tracks across commits. Throughput, allocation counts and sslint wall
// time are ratcheted (a regression past the per-metric slack fails);
// telemetry overhead is recorded for the archived diff but gated by its
// own contract.
type metrics struct {
	// SimulatedDaysPerSec is the parallel day pipeline's throughput:
	// 1e9 / SimulatedDayParallel ns/op. Ratcheted (lower is worse).
	SimulatedDaysPerSec float64 `json:"simulated_days_per_sec"`
	// DayAllocsPerOp is SimulatedDayParallel's allocs/op. Ratcheted.
	DayAllocsPerOp int64 `json:"day_allocs_per_op"`
	// HtmlgenDoorwayAllocsPerOp is the steady-state (memoised) doorway
	// page fetch. Ratcheted; the htmlgen alloc test pins it to zero.
	HtmlgenDoorwayAllocsPerOp int64 `json:"htmlgen_doorway_allocs_per_op"`
	// HtmlgenStoreAllocsPerOp is the steady-state storefront fetch. Ratcheted.
	HtmlgenStoreAllocsPerOp int64 `json:"htmlgen_store_allocs_per_op"`
	// TripletsAllocsPerOp is the parser's allocs per document. Ratcheted.
	TripletsAllocsPerOp int64 `json:"triplets_allocs_per_op"`
	// TelemetryOverheadPct is recorded, not ratcheted: its own < 2%
	// contract is asserted directly in CI.
	TelemetryOverheadPct float64 `json:"telemetry_overhead_pct"`
	// SslintWallMs is one full lint pass over ./... — the latency every CI
	// run and every pre-commit pays. Ratcheted with wide slack: single-run
	// wall clock on shared hardware is noisy, so the gate only trips when
	// the suite genuinely blows up, not when the host is grumpy.
	SslintWallMs float64 `json:"sslint_wall_ms"`
	// CheckpointSaveMs times one full-study snapshot through the codec and
	// the atomic write protocol; CheckpointLoadMs times the recovery scan
	// plus decode of the same file. Recorded, not ratcheted: both are
	// dominated by disk latency, which is the host's mood rather than the
	// code's cost.
	CheckpointSaveMs float64 `json:"checkpoint_save_ms"`
	CheckpointLoadMs float64 `json:"checkpoint_load_ms"`
	// APILaunchMs times one POST /v1/studies round trip through the
	// service plane (spec validation, world build, spec persistence).
	// Recorded, not ratcheted: dominated by the world build.
	APILaunchMs float64 `json:"api_launch_ms"`
	// SerpReqP99Us is the p99 of the API's simulated-web route under a
	// serial drive, read from the service registry's own histogram.
	// Recorded, not ratcheted.
	SerpReqP99Us float64 `json:"serp_req_p99_us"`
}

// report is the file's top-level shape.
type report struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// GoMaxProcs is what the benchmarks actually ran under — the number a
	// reader needs before comparing throughput across hosts.
	GoMaxProcs int `json:"gomaxprocs"`
	// Samples is the min-of-N width used for every ratcheted benchmark.
	Samples int      `json:"samples"`
	Results []result `json:"results"`
	Metrics metrics  `json:"metrics"`
	// TelemetryOverheadPct is SimulatedDayTelemetry vs SimulatedDayParallel:
	// the day-pipeline cost of running with a live registry relative to the
	// no-op sink. The contract (asserted in CI) is < 2%.
	TelemetryOverheadPct float64 `json:"telemetry_overhead_pct"`
	// Telemetry is the metrics snapshot of a small faults-moderate study,
	// so the archived JSON captures workload shape (fetch chains, retries,
	// breaker trips, injected faults), not just wall time.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
	// SslintWallMs is one full sslint pass over ./... — load, type-check,
	// fact propagation, all analyzers — so analyzer performance regressions
	// land in the same per-commit diff as the pipeline numbers.
	SslintWallMs float64 `json:"sslint_wall_ms"`
	// SslintFindings counts the pass's raw (pre-baseline) findings; CI
	// gates on cmd/sslint separately, this is just cross-checkable context
	// for the timing.
	SslintFindings int `json:"sslint_findings"`
}

// baselineFile is what -write-baseline persists and -baseline compares
// against: the ratchet surface plus enough host metadata to spot
// apples-to-oranges comparisons in review.
type baselineFile struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Samples    int     `json:"samples"`
	Metrics    metrics `json:"metrics"`
}

// benchCfg mirrors the root package's ablationConfig: small enough that a
// full study fits in a CI step.
func benchCfg() searchseizure.Config {
	cfg := searchseizure.TestConfig()
	cfg.TermsPerVertical = 4
	cfg.SlotsPerTerm = 20
	cfg.ExtendedTail = false
	return cfg
}

// newStudy builds a study for benchmark b.
func newStudy(b *testing.B, cfg searchseizure.Config) *searchseizure.Study {
	s, err := searchseizure.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func run(name string, fn func(b *testing.B)) result {
	r := testing.Benchmark(fn)
	fmt.Fprintf(os.Stderr, "%-28s %12d ns/op %8d allocs/op\n", name, r.NsPerOp(), r.AllocsPerOp())
	return result{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// runMin takes the best of `samples` runs. The overhead contract compares
// two ~10ms pipelines whose single-sample noise on shared CI hardware is
// several percent — larger than the quantity under test — and min-of-N is
// the usual estimator for "the code's cost without the machine's mood".
// It reports which sample won so a log reader can see whether the minimum
// came from a warm late run or the machine simply never settled.
func runMin(name string, samples int, fn func(b *testing.B)) result {
	best := run(name, fn)
	won := 1
	for i := 1; i < samples; i++ {
		if r := run(name, fn); r.NsPerOp < best.NsPerOp {
			best = r
			won = i + 1
		}
	}
	fmt.Fprintf(os.Stderr, "%-28s min-of-%d: sample %d/%d won (%.0f ns/op)\n",
		name, samples, won, samples, best.NsPerOp)
	return best
}

// sslintModuleRoot walks up from the working directory to go.mod, so the
// timing works whether CI runs benchjson from the root or a subdirectory.
func sslintModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// ratchet is one compared metric: how to read it out of a metrics block,
// which direction is a regression, and how much slack it gets before the
// gate trips. Min-of-N benchmark numbers get the standard 10%; single-run
// wall-clock numbers get 50%, enough to absorb a grumpy host while still
// catching a suite that doubles its cost.
type ratchet struct {
	name        string
	read        func(m metrics) float64
	higherIsBad bool
	slack       float64
}

var ratchets = []ratchet{
	{"simulated_days_per_sec", func(m metrics) float64 { return m.SimulatedDaysPerSec }, false, 0.10},
	{"day_allocs_per_op", func(m metrics) float64 { return float64(m.DayAllocsPerOp) }, true, 0.10},
	{"htmlgen_doorway_allocs_per_op", func(m metrics) float64 { return float64(m.HtmlgenDoorwayAllocsPerOp) }, true, 0.10},
	{"htmlgen_store_allocs_per_op", func(m metrics) float64 { return float64(m.HtmlgenStoreAllocsPerOp) }, true, 0.10},
	{"triplets_allocs_per_op", func(m metrics) float64 { return float64(m.TripletsAllocsPerOp) }, true, 0.10},
	{"sslint_wall_ms", func(m metrics) float64 { return m.SslintWallMs }, true, 0.50},
}

// compareBaseline enforces the per-metric ratchet and returns the number
// of regressions. A zero baseline on a higher-is-bad metric means "stay at
// zero": any increase is a regression, since the alloc counts involved are
// deterministic, not noisy.
func compareBaseline(base baselineFile, cur metrics) int {
	regressions := 0
	for _, r := range ratchets {
		b, c := r.read(base.Metrics), r.read(cur)
		var bad bool
		switch {
		case r.higherIsBad && b == 0:
			bad = c > 0
		case r.higherIsBad:
			bad = c > b*(1+r.slack)
		default:
			bad = c < b*(1-r.slack)
		}
		verdict := "ok"
		if bad {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(os.Stderr, "ratchet %-32s baseline %12.2f current %12.2f  %s\n",
			r.name, b, c, verdict)
	}
	return regressions
}

func main() {
	out := flag.String("o", "BENCH_0.json", "output file")
	samples := flag.Int("samples", 3, "min-of-N sample count for ratcheted benchmarks")
	baselinePath := flag.String("baseline", "", "baseline file to ratchet against (exit 1 on any regression past a metric's slack)")
	writeBaseline := flag.String("write-baseline", "", "write the measured metrics as a new baseline file and exit 0")
	flag.Parse()

	rep := report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Samples:    *samples,
	}

	rep.Results = append(rep.Results, run("FullStudy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d, err := newStudy(b, benchCfg()).RunContext(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if d.TotalPSRs() == 0 {
				b.Fatal("study produced no PSRs")
			}
		}
	}))

	rep.Results = append(rep.Results, run("SimulatedDaySerial", func(b *testing.B) {
		cfg := benchCfg()
		cfg.ObserveWorkers = 1
		s := newStudy(b, cfg)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.World.RunDay(simclock.Day(0))
		}
	}))

	// Every ratcheted benchmark is measured min-of-N so the baseline diff
	// is code cost, not scheduler noise.
	parallelRes := runMin("SimulatedDayParallel", *samples, func(b *testing.B) {
		cfg := benchCfg()
		cfg.ObserveWorkers = runtime.NumCPU()
		cfg.CrawlWorkers = runtime.NumCPU()
		s := newStudy(b, cfg)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.World.RunDay(simclock.Day(0))
		}
	})
	parallelNs := parallelRes.NsPerOp
	rep.Results = append(rep.Results, parallelRes)

	// Same pipeline with a live registry attached: the delta against
	// SimulatedDayParallel is the telemetry layer's whole cost.
	telemetryRes := runMin("SimulatedDayTelemetry", *samples, func(b *testing.B) {
		cfg := benchCfg()
		cfg.ObserveWorkers = runtime.NumCPU()
		cfg.CrawlWorkers = runtime.NumCPU()
		cfg.Telemetry = telemetry.New()
		s := newStudy(b, cfg)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.World.RunDay(simclock.Day(0))
		}
	})
	telemetryNs := telemetryRes.NsPerOp
	rep.Results = append(rep.Results, telemetryRes)
	if parallelNs > 0 {
		rep.TelemetryOverheadPct = (telemetryNs - parallelNs) / parallelNs * 100
		fmt.Fprintf(os.Stderr, "%-28s %11.2f%%\n", "telemetry overhead", rep.TelemetryOverheadPct)
	}

	// Steady-state page generation: the crawler's per-fetch cost once the
	// page memo is warm. These are the numbers the pooled-scratch rewrite
	// drove to zero; the ratchet keeps them there.
	hr := rng.New(7)
	specs := campaign.Roster(simclock.StudyWindow())
	deps := campaign.DeployAll(hr.Sub("deploy"), specs, 0.02)
	gen := htmlgen.New(hr)
	dw := deps[0].Doorways[0]
	terms := []string{
		"cheap beats by dre", "beats by dre outlet", "discount beats",
		"beats studio sale", "dre headphones cheap", "beats pro outlet",
	}
	doorwayRes := runMin("HtmlgenDoorwayPage", *samples, func(b *testing.B) {
		gen.DoorwayCrawlerPage(dw, terms)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gen.DoorwayCrawlerPage(dw, terms)
		}
	})
	rep.Results = append(rep.Results, doorwayRes)
	st := deps[0].Stores[0]
	storeRes := runMin("HtmlgenStorePage", *samples, func(b *testing.B) {
		gen.StorePage(st, st.Domains[0])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gen.StorePage(st, st.Domains[0])
		}
	})
	rep.Results = append(rep.Results, storeRes)

	tripletsRes := runMin("Triplets", *samples, func(b *testing.B) {
		doc := strings.Repeat(`<div class="product"><a href="/php?p=cheap">Buy</a>`+
			`<img src="http://img.example.com/p.png"></div>`, 120)
		b.ReportAllocs()
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			htmlparse.Triplets(doc)
		}
	})
	rep.Results = append(rep.Results, tripletsRes)

	// Time one full sslint pass. Wall clock is the right unit here — the
	// linter gates every CI run, so its end-to-end latency is the cost
	// developers actually pay.
	sslintStart := time.Now()
	root, err := sslintModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sslint timing:", err)
		os.Exit(1)
	}
	loader, err := load.NewModuleLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sslint timing:", err)
		os.Exit(1)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sslint timing:", err)
		os.Exit(1)
	}
	findings, err := lint.Run(pkgs, lint.All(), lint.DefaultScope())
	if err != nil {
		fmt.Fprintln(os.Stderr, "sslint timing:", err)
		os.Exit(1)
	}
	rep.SslintWallMs = float64(time.Since(sslintStart).Microseconds()) / 1000
	rep.SslintFindings = len(findings)
	fmt.Fprintf(os.Stderr, "%-28s %10.1fms %8d finding(s)\n", "sslint ./...", rep.SslintWallMs, len(findings))

	rep.Metrics = metrics{
		SimulatedDaysPerSec:       1e9 / parallelNs,
		DayAllocsPerOp:            parallelRes.AllocsPerOp,
		HtmlgenDoorwayAllocsPerOp: doorwayRes.AllocsPerOp,
		HtmlgenStoreAllocsPerOp:   storeRes.AllocsPerOp,
		TripletsAllocsPerOp:       tripletsRes.AllocsPerOp,
		TelemetryOverheadPct:      rep.TelemetryOverheadPct,
		SslintWallMs:              rep.SslintWallMs,
	}
	fmt.Fprintf(os.Stderr, "%-28s %12.2f days/sec\n", "throughput", rep.Metrics.SimulatedDaysPerSec)

	// Run one small faults-moderate study with a live registry and archive
	// its metrics snapshot: fetch-chain shape, retries, breaker trips and
	// injected-fault tallies become part of the per-commit JSON diff.
	reg := telemetry.New()
	study, err := searchseizure.New(benchCfg(),
		searchseizure.WithFaults("moderate"),
		searchseizure.WithTelemetry(reg),
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, "telemetry study:", err)
		os.Exit(1)
	}
	if _, err := study.RunContext(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "telemetry study:", err)
		os.Exit(1)
	}
	// Time one checkpoint save/load cycle over the finished study: the
	// snapshot export, codec and atomic-write protocol on the way out, the
	// recovery scan and decode on the way back. The manager records the
	// same numbers into reg's checkpoint_{save,load}_ms histograms, so they
	// also land in the archived telemetry snapshot below.
	ckDir, err := os.MkdirTemp("", "benchjson-ckpt-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "checkpoint timing:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(ckDir)
	mgr, err := checkpoint.NewManager(checkpoint.Options{Dir: ckDir, Telemetry: reg})
	if err != nil {
		fmt.Fprintln(os.Stderr, "checkpoint timing:", err)
		os.Exit(1)
	}
	saveStart := time.Now()
	if err := mgr.Save(study.World.Snapshot()); err != nil {
		fmt.Fprintln(os.Stderr, "checkpoint timing:", err)
		os.Exit(1)
	}
	rep.Metrics.CheckpointSaveMs = float64(time.Since(saveStart).Microseconds()) / 1000
	loadStart := time.Now()
	if _, err := mgr.Load(); err != nil {
		fmt.Fprintln(os.Stderr, "checkpoint timing:", err)
		os.Exit(1)
	}
	rep.Metrics.CheckpointLoadMs = float64(time.Since(loadStart).Microseconds()) / 1000
	fmt.Fprintf(os.Stderr, "%-28s save %.1fms load %.1fms\n", "checkpoint cycle",
		rep.Metrics.CheckpointSaveMs, rep.Metrics.CheckpointLoadMs)

	// Service-plane numbers: launch one miniature study through the real
	// POST /v1/studies handler and drive its simulated-web route; the
	// latency histogram comes from the service's own telemetry registry.
	svcDir, err := os.MkdirTemp("", "benchjson-svc-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "service timing:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(svcDir)
	svcReg := telemetry.New()
	svcMgr, err := studysvc.NewManager(studysvc.Options{
		BaseDir: svcDir, Budget: runtime.NumCPU(), MaxActive: 2, Telemetry: svcReg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "service timing:", err)
		os.Exit(1)
	}
	svcSrv := httptest.NewServer(svcMgr.Handler())
	noTail := false
	specRaw, _ := json.Marshal(searchseizure.StudySpec{
		Seed: 1, Days: 1, TermsPerVertical: 3, SlotsPerTerm: 20,
		ExtendedTail: &noTail, CheckpointEvery: 50,
	})
	launchStart := time.Now()
	resp, err := http.Post(svcSrv.URL+"/v1/studies", "application/json", bytes.NewReader(specRaw))
	if err != nil {
		fmt.Fprintln(os.Stderr, "service timing:", err)
		os.Exit(1)
	}
	rep.Metrics.APILaunchMs = float64(time.Since(launchStart).Microseconds()) / 1000
	var launched struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&launched); err != nil {
		fmt.Fprintln(os.Stderr, "service timing:", err)
		os.Exit(1)
	}
	resp.Body.Close()
	dresp, err := http.Get(svcSrv.URL + "/v1/studies/" + launched.ID + "/domains?limit=1")
	if err != nil {
		fmt.Fprintln(os.Stderr, "service timing:", err)
		os.Exit(1)
	}
	var doms struct {
		Domains []string `json:"domains"`
	}
	if err := json.NewDecoder(dresp.Body).Decode(&doms); err != nil || len(doms.Domains) == 0 {
		fmt.Fprintln(os.Stderr, "service timing: no domains:", err)
		os.Exit(1)
	}
	dresp.Body.Close()
	serpURL := fmt.Sprintf("%s/v1/studies/%s/web/?simhost=%s&u=/", svcSrv.URL, launched.ID, doms.Domains[0])
	for i := 0; i < 500; i++ {
		wr, err := http.Get(serpURL)
		if err != nil {
			fmt.Fprintln(os.Stderr, "service timing:", err)
			os.Exit(1)
		}
		io.Copy(io.Discard, wr.Body)
		wr.Body.Close()
	}
	rep.Metrics.SerpReqP99Us = svcReg.Snapshot().Histograms["api_req_serp_us"].Quantile(0.99)
	fmt.Fprintf(os.Stderr, "%-28s launch %.1fms serp p99 %.0fus\n", "service plane",
		rep.Metrics.APILaunchMs, rep.Metrics.SerpReqP99Us)
	shCtx, shCancel := context.WithTimeout(context.Background(), time.Minute)
	if err := svcMgr.Shutdown(shCtx); err != nil {
		fmt.Fprintln(os.Stderr, "service timing:", err)
		os.Exit(1)
	}
	shCancel()
	svcSrv.Close()

	snap := reg.Snapshot()
	rep.Telemetry = &snap

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "marshal:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "write:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)

	if *writeBaseline != "" {
		bl := baselineFile{
			GoVersion:  rep.GoVersion,
			GOOS:       rep.GOOS,
			GOARCH:     rep.GOARCH,
			NumCPU:     rep.NumCPU,
			GoMaxProcs: rep.GoMaxProcs,
			Samples:    rep.Samples,
			Metrics:    rep.Metrics,
		}
		data, err := json.MarshalIndent(bl, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "marshal baseline:", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*writeBaseline, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "write baseline:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *writeBaseline)
		return
	}

	if *baselinePath != "" {
		raw, err := os.ReadFile(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "baseline:", err)
			os.Exit(1)
		}
		var base baselineFile
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintln(os.Stderr, "baseline:", err)
			os.Exit(1)
		}
		if base.GoVersion != rep.GoVersion || base.NumCPU != rep.NumCPU {
			fmt.Fprintf(os.Stderr, "note: baseline host differs (%s/%d CPUs vs %s/%d) — throughput comparisons are indicative\n",
				base.GoVersion, base.NumCPU, rep.GoVersion, rep.NumCPU)
		}
		if n := compareBaseline(base, rep.Metrics); n > 0 {
			fmt.Fprintf(os.Stderr, "bench ratchet: %d metric(s) regressed past their slack vs %s\n", n, *baselinePath)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bench ratchet: all metrics within slack of %s\n", *baselinePath)
	}
}
