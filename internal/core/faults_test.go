package core

import (
	"os"
	"runtime"
	"testing"

	"repro/internal/faults"
)

// goldenSmallFingerprint is the smallConfig() dataset fingerprint of the
// fault-free pipeline, captured before fault injection existed. The CI
// fault-matrix job asserts it on every run: faults-off studies must stay
// bit-identical to the pre-fault pipeline forever — the injection hook, the
// resilient fetcher and the coverage mask all have to vanish completely when
// disabled.
const goldenSmallFingerprint = 0xf6f361ae7ec6499d

// goldenModerateFingerprint and goldenSevereFingerprint are the
// smallConfig() fingerprints under the moderate and severe fault profiles,
// at any worker count.
const (
	goldenModerateFingerprint = 0x864667c5d36de57d
	goldenSevereFingerprint   = 0x9e69a610213e035b
)

func TestFaultsOffMatchesGoldenFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	data := NewWorld(smallConfig()).Run()
	if data.FaultsEnabled {
		t.Fatal("faults-off study has FaultsEnabled set")
	}
	if data.MeanCoverage() != 1 || data.OutageDays() != 0 {
		t.Fatalf("faults-off study reports loss: coverage=%v outages=%d",
			data.MeanCoverage(), data.OutageDays())
	}
	if got := data.Fingerprint(); uint64(got) != goldenSmallFingerprint {
		t.Fatalf("faults-off fingerprint %#x != golden %#x — the disabled fault path is not inert",
			got, uint64(goldenSmallFingerprint))
	}
}

// matrixProfile picks the fault profile under test from the CI matrix's
// FAULT_PROFILE env var (off | moderate | severe), defaulting to moderate.
func matrixProfile(t *testing.T) (string, faults.Config) {
	t.Helper()
	name := os.Getenv("FAULT_PROFILE")
	if name == "" {
		name = "moderate"
	}
	cfg, err := faults.Profile(name)
	if err != nil {
		t.Fatal(err)
	}
	return name, cfg
}

// TestFaultPipelineDeterministic is the fault layer's core contract: with
// injection enabled, a study is still bit-identical between a single observe
// worker at GOMAXPROCS=1 and a full fan-out — every injection decision is a
// pure function of the plan seed and request attributes, never of
// scheduling.
func TestFaultPipelineDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	name, fcfg := matrixProfile(t)
	t.Logf("fault profile: %s", name)

	serialCfg := smallConfig()
	serialCfg.Faults = fcfg
	serialCfg.ObserveWorkers = 1
	serialCfg.CrawlWorkers = 1
	prev := runtime.GOMAXPROCS(1)
	serial := NewWorld(serialCfg).Run()
	runtime.GOMAXPROCS(prev)

	parCfg := smallConfig()
	parCfg.Faults = fcfg
	parCfg.ObserveWorkers = runtime.NumCPU()
	parCfg.CrawlWorkers = runtime.NumCPU()
	par := NewWorld(parCfg).Run()

	if serial.TotalPSRs() != par.TotalPSRs() {
		t.Errorf("PSR totals differ: serial=%d parallel=%d", serial.TotalPSRs(), par.TotalPSRs())
	}
	if serial.OutageDays() != par.OutageDays() {
		t.Errorf("outage days differ: serial=%d parallel=%d", serial.OutageDays(), par.OutageDays())
	}
	if serial.MeanCoverage() != par.MeanCoverage() {
		t.Errorf("coverage differs: serial=%v parallel=%v", serial.MeanCoverage(), par.MeanCoverage())
	}
	if got, want := par.Fingerprint(), serial.Fingerprint(); got != want {
		t.Errorf("fingerprints differ under %s faults: serial=%#x parallel=%#x", name, want, got)
	}
}

// TestSevereFaultsDegradeGracefully is the acceptance check: a study under
// the severe profile — double-digit fetch failure rates, dead domains, lost
// SERPs, whole crawler outage days — must complete without panicking,
// report the loss honestly (coverage < 1, outage days in the mask) and
// still produce a usable dataset.
func TestSevereFaultsDegradeGracefully(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := smallConfig()
	cfg.Faults, _ = faults.Profile("severe")
	w := NewWorld(cfg)
	data := w.Run()

	if !data.FaultsEnabled {
		t.Fatal("severe study not flagged FaultsEnabled")
	}
	if cov := data.MeanCoverage(); cov >= 1 || cov <= 0 {
		t.Fatalf("severe coverage %v, want in (0, 1)", cov)
	}
	if data.OutageDays() == 0 {
		t.Error("severe profile produced no whole-day outages across the study window")
	}
	for d, ok := range data.ObservedDays {
		if !ok && data.Coverage.At(d) != 0 {
			t.Fatalf("outage day %d has nonzero coverage %v", d, data.Coverage.At(d))
		}
	}
	if data.TotalPSRs() == 0 {
		t.Fatal("severe study observed nothing")
	}
	if data.TotalDoorways() == 0 || data.TotalStores() == 0 {
		t.Fatalf("severe study found no infrastructure: %d doorways, %d stores",
			data.TotalDoorways(), data.TotalStores())
	}
	st := w.Resilient.Stats()
	if st.Retries == 0 || st.Failures == 0 {
		t.Fatalf("resilient fetcher saw no faults under severe profile: %+v", st)
	}
	if got := data.Fingerprint(); uint64(got) != goldenSevereFingerprint {
		t.Fatalf("severe fingerprint %#x != golden %#x", got, uint64(goldenSevereFingerprint))
	}
	// And the run is reproducible: same seed, same profile, same dataset.
	again := NewWorld(cfg).Run()
	if got, want := again.Fingerprint(), data.Fingerprint(); got != want {
		t.Fatalf("severe study not reproducible: %#x vs %#x", got, want)
	}
}
