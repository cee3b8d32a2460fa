package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

// TestSuiteRunsCleanOverModule is the meta-gate: sslint over ./... must
// report nothing. Every invariant the analyzers encode is therefore known
// to hold on the committed tree, and any future finding is a regression
// introduced by the change that surfaced it.
func TestSuiteRunsCleanOverModule(t *testing.T) {
	root := moduleRoot(t)
	loader, err := load.NewModuleLoader(root)
	if err != nil {
		t.Fatalf("module loader: %v", err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the walker is missing the tree", len(pkgs))
	}
	findings, err := lint.Run(pkgs, lint.All(), lint.DefaultScope())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, f := range lint.Finalize(findings, root) {
		t.Errorf("%s:%d:%d: [%s] %s (id %s)", f.File, f.Line, f.Column, f.Analyzer, f.Message, f.ID)
	}
}

// TestInjectedWallClockIsCaught proves the CI gate bites: a time.Now()
// smuggled into repro/internal/core — the exact regression the golden
// fingerprint would only catch probabilistically — is a build-time
// finding.
func TestInjectedWallClockIsCaught(t *testing.T) {
	loader, err := load.NewModuleLoader(moduleRoot(t))
	if err != nil {
		t.Fatalf("module loader: %v", err)
	}
	loader.Inject = map[string][]load.InjectedFile{
		"repro/internal/core": {{
			Name: "zz_injected_regression.go",
			Src: `package core

import "time"

// injectedJitter is the classic determinism bug: skewing a simulated
// quantity by the machine clock.
func injectedJitter() int64 { return time.Now().UnixNano() % 3 }
`,
		}},
	}
	pkgs, err := loader.Load("./internal/core")
	if err != nil {
		t.Fatalf("loading core with injected regression: %v", err)
	}
	findings, err := lint.Run(pkgs, lint.All(), lint.DefaultScope())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	var hit []lint.Finding
	for _, f := range findings {
		if f.Analyzer == lint.NoWallTime.Name && strings.Contains(f.Message, "time.Now") {
			hit = append(hit, f)
		}
	}
	if len(hit) != 1 {
		t.Fatalf("expected exactly one nowalltime finding for the injected time.Now, got %d (all findings: %+v)", len(hit), findings)
	}
	if filepath.Base(hit[0].File) != "zz_injected_regression.go" {
		t.Errorf("finding attributed to %s, want the injected file", hit[0].File)
	}
}

// TestInjectedRawGoroutineIsCaught does the same for the concurrency
// invariant: a raw goroutine in the observe path bypassing the
// ordered-commit pool is refused at analysis time.
func TestInjectedRawGoroutineIsCaught(t *testing.T) {
	loader, err := load.NewModuleLoader(moduleRoot(t))
	if err != nil {
		t.Fatalf("module loader: %v", err)
	}
	loader.Inject = map[string][]load.InjectedFile{
		"repro/internal/core": {{
			Name: "zz_injected_goroutine.go",
			Src: `package core

func injectedSpawn(fns []func()) {
	for _, fn := range fns {
		go fn()
	}
}
`,
		}},
	}
	pkgs, err := loader.Load("./internal/core")
	if err != nil {
		t.Fatalf("loading core with injected goroutine: %v", err)
	}
	findings, err := lint.Run(pkgs, lint.All(), lint.DefaultScope())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	found := false
	for _, f := range findings {
		if f.Analyzer == lint.PoolOnly.Name {
			found = true
		}
	}
	if !found {
		t.Fatalf("injected raw goroutine in internal/core not caught; findings: %+v", findings)
	}
}

// TestInjectedLaunderedWallClockIsCaught proves the tentpole property:
// a wall-clock read laundered through two helper hops AND an interface
// method inside an exempt package (telemetry is outside the nowalltime
// gate) is still caught — as a purity finding at the call site inside the
// gated package. The control run with only the intraprocedural base
// analyzers finds nothing, which is exactly the hole the call-graph pass
// closes.
func TestInjectedLaunderedWallClockIsCaught(t *testing.T) {
	loader, err := load.NewModuleLoader(moduleRoot(t))
	if err != nil {
		t.Fatalf("module loader: %v", err)
	}
	loader.Inject = map[string][]load.InjectedFile{
		"repro/internal/telemetry": {{
			Name: "zz_injected_launder.go",
			Src: `package telemetry

import "time"

// zzTicker hides the clock behind an interface: the call site in core
// never names the impure method's concrete receiver.
type zzTicker interface{ ZZTick() int64 }

type zzClock struct{}

// ZZTick is hop one; zzHelper is hop two; only the leaf touches time.
func (zzClock) ZZTick() int64 { return zzHelper() }

func zzHelper() int64 { return time.Now().UnixNano() }

// ZZNow hands the laundered clock to callers.
func ZZNow() zzTicker { return zzClock{} }
`,
		}},
		"repro/internal/core": {{
			Name: "zz_injected_skew.go",
			Src: `package core

import "repro/internal/telemetry"

// zzSkew smuggles the machine clock into the simulation through an
// exempt package's interface.
func zzSkew() int64 { return telemetry.ZZNow().ZZTick() }
`,
		}},
	}
	pkgs, err := loader.Load("./internal/core")
	if err != nil {
		t.Fatalf("loading core with laundered clock: %v", err)
	}

	// Control: the intraprocedural base analyzers see nothing — the
	// time.Now lives in an exempt package.
	base, err := lint.Run(pkgs, []*analysis.Analyzer{lint.NoWallTime, lint.SeededRand, lint.MapOrder, lint.PoolOnly}, lint.DefaultScope())
	if err != nil {
		t.Fatalf("running base analyzers: %v", err)
	}
	if len(base) != 0 {
		t.Fatalf("base analyzers reported the laundered clock without the call graph — the control is broken: %+v", base)
	}

	findings, err := lint.Run(pkgs, lint.All(), lint.DefaultScope())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	var hit []lint.Finding
	for _, f := range findings {
		if f.Analyzer == lint.Purity.Name && filepath.Base(f.File) == "zz_injected_skew.go" {
			hit = append(hit, f)
		}
	}
	if len(hit) == 0 {
		t.Fatalf("laundered wall clock not caught by purity; findings: %+v", findings)
	}
	msg := hit[0].Message
	for _, want := range []string{"wall-clock access", "via ", "scope exemptions apply at this call site"} {
		if !strings.Contains(msg, want) {
			t.Errorf("purity message %q missing %q", msg, want)
		}
	}
}

// TestInjectedPoolCaptureIsCaught proves racecapture follows forwarding:
// the closure never syntactically touches internal/parallel — it goes
// through a helper in an exempt package that forwards its func parameter
// to the pool — yet the loop-variable capture and the unsynchronised
// write to captured state are both findings at the closure in core.
func TestInjectedPoolCaptureIsCaught(t *testing.T) {
	loader, err := load.NewModuleLoader(moduleRoot(t))
	if err != nil {
		t.Fatalf("module loader: %v", err)
	}
	loader.Inject = map[string][]load.InjectedFile{
		"repro/internal/telemetry": {{
			Name: "zz_injected_runner.go",
			Src: `package telemetry

import "repro/internal/parallel"

// ZZRun hands fn to the worker pool on the caller's behalf.
func ZZRun(n int, fn func(int)) { parallel.ForEach(2, n, fn) }
`,
		}},
		"repro/internal/core": {{
			Name: "zz_injected_tally.go",
			Src: `package core

import "repro/internal/telemetry"

// zzTally races twice over: the closure captures the loop variable and
// accumulates into captured shared state with no partitioning.
func zzTally(rows [][]int) int {
	total := 0
	for _, row := range rows {
		telemetry.ZZRun(len(row), func(i int) {
			total += row[0]
		})
	}
	return total
}
`,
		}},
	}
	pkgs, err := loader.Load("./internal/core")
	if err != nil {
		t.Fatalf("loading core with pool capture: %v", err)
	}

	// Control: without the fact-propagating pass nothing fires — no
	// analyzer but racecapture knows ZZRun reaches the pool.
	base, err := lint.Run(pkgs, []*analysis.Analyzer{lint.NoWallTime, lint.SeededRand, lint.MapOrder, lint.PoolOnly}, lint.DefaultScope())
	if err != nil {
		t.Fatalf("running base analyzers: %v", err)
	}
	if len(base) != 0 {
		t.Fatalf("base analyzers reported the forwarded capture — the control is broken: %+v", base)
	}

	findings, err := lint.Run(pkgs, lint.All(), lint.DefaultScope())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	var loopVar, write bool
	for _, f := range findings {
		if f.Analyzer != lint.RaceCapture.Name || filepath.Base(f.File) != "zz_injected_tally.go" {
			continue
		}
		if strings.Contains(f.Message, `captures loop variable "row"`) {
			loopVar = true
		}
		if strings.Contains(f.Message, `writes to captured "total"`) {
			write = true
		}
	}
	if !loopVar || !write {
		t.Fatalf("forwarded pool capture not fully caught (loopVar=%v write=%v); findings: %+v", loopVar, write, findings)
	}
}

// moduleRoot locates the repo root from the test's working directory
// (internal/lint).
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}
