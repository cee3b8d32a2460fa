package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/telemetry"
)

// TestTelemetryNeutralFingerprint is the observability layer's core
// contract: attaching a live registry must not perturb the study by one
// bit. The golden fingerprint pinned in faults_test.go must come out of a
// telemetry-on run at GOMAXPROCS=1 and at full parallelism alike —
// telemetry only observes decisions the pipeline already made, it never
// feeds a value (clock reading, counter state, span timing) back into one.
func TestTelemetryNeutralFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}

	serialCfg := smallConfig()
	serialCfg.ObserveWorkers = 1
	serialCfg.CrawlWorkers = 1
	serialCfg.Telemetry = telemetry.New()
	prev := runtime.GOMAXPROCS(1)
	serial := NewWorld(serialCfg).Run()
	runtime.GOMAXPROCS(prev)
	if fp := serial.Fingerprint(); fp != goldenSmallFingerprint {
		t.Errorf("telemetry-on serial fingerprint = %#x, want golden %#x", fp, uint64(goldenSmallFingerprint))
	}

	parCfg := smallConfig()
	parCfg.ObserveWorkers = runtime.NumCPU()
	parCfg.CrawlWorkers = runtime.NumCPU()
	parCfg.Telemetry = telemetry.New()
	if fp := NewWorld(parCfg).Run().Fingerprint(); fp != goldenSmallFingerprint {
		t.Errorf("telemetry-on parallel fingerprint = %#x, want golden %#x", fp, uint64(goldenSmallFingerprint))
	}
}

// TestTelemetryCountersDeterministic pins the counters themselves: every
// decision the pipeline makes is deterministic, faults or not, so the
// decision counters in the snapshot must be identical between a 1-worker
// and an 8-worker run. Wall-clock tallies (the *_ns_total pool utilisation
// counters) are excluded — they measure this machine, not the study. Under
// fault injection this holds because each domain is checked by one crawl
// job a day, vertical by vertical: which sample URL is fetched, and so
// which fetches fail, does not depend on scheduling.
func TestTelemetryCountersDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, profile := range []string{"off", "moderate", "severe"} {
		t.Run(profile, func(t *testing.T) {
			fc, err := faults.Profile(profile)
			if err != nil {
				t.Fatal(err)
			}
			runWith := func(workers int) map[string]int64 {
				cfg := smallConfig()
				cfg.Faults = fc
				cfg.ObserveWorkers = workers
				cfg.CrawlWorkers = workers
				cfg.Telemetry = telemetry.New()
				NewWorld(cfg).Run()
				return cfg.Telemetry.Snapshot().Counters
			}

			// timing reports whether a counter tallies nanoseconds of wall clock.
			timing := func(name string) bool { return strings.HasSuffix(name, "_ns_total") }

			serial := runWith(1)
			par := runWith(8)
			if len(serial) == 0 {
				t.Fatal("telemetry-on run recorded no counters")
			}
			compared := 0
			for name, want := range serial {
				if timing(name) {
					continue
				}
				compared++
				if got, ok := par[name]; !ok || got != want {
					t.Errorf("counter %s: serial=%d parallel=%d (present=%v)", name, want, got, ok)
				}
			}
			if compared == 0 {
				t.Fatal("no decision counters to compare")
			}
			if fc.Enabled() && serial["crawler_fetch_attempts_total"] == 0 {
				t.Fatal("faulted run made no resilient fetch attempts")
			}
			for name := range par {
				if _, ok := serial[name]; !ok {
					t.Errorf("counter %s present only in the parallel run", name)
				}
			}
		})
	}
}

// errAfter is a context whose Err starts failing after n polls, which lets
// the cancellation tests hit an exact day boundary deterministically
// (RunContext polls Err once per day).
type errAfter struct {
	context.Context
	polls, n int
}

var errTripped = errors.New("tripped")

func (c *errAfter) Err() error {
	c.polls++
	if c.polls > c.n {
		return errTripped
	}
	return nil
}

// TestRunContextCancellation checks the day-boundary cancellation contract:
// a cancelled run returns a coherent partial dataset (every day in
// [0, DaysRun) fully committed), and a later RunContext on the same world
// resumes from the cursor and converges to the exact uninterrupted result.
func TestRunContextCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}

	cfg := smallConfig()
	w := NewWorld(cfg)

	const daysBefore = 5
	ctx := &errAfter{Context: context.Background(), n: daysBefore}
	data, err := w.RunContext(ctx)
	if !errors.Is(err, errTripped) {
		t.Fatalf("RunContext error = %v, want errTripped", err)
	}
	if data == nil {
		t.Fatal("cancelled RunContext returned a nil dataset")
	}
	if data.DaysRun != daysBefore {
		t.Fatalf("DaysRun = %d, want %d", data.DaysRun, daysBefore)
	}

	// Resume with a live context: the world's cursor continues from the
	// first unrun day and the finished dataset must be bit-identical to an
	// uninterrupted run of the same config.
	full, err := w.RunContext(context.Background())
	if err != nil {
		t.Fatalf("resumed RunContext error = %v", err)
	}
	if full.DaysRun != w.Sim.Days() {
		t.Fatalf("resumed DaysRun = %d, want %d", full.DaysRun, w.Sim.Days())
	}
	want := NewWorld(smallConfig()).Run().Fingerprint()
	if got := full.Fingerprint(); got != want {
		t.Fatalf("resumed fingerprint = %#x, uninterrupted = %#x", got, want)
	}
}

// TestDaysRunExcludedFromFingerprint guards the deliberate design choice
// that lets a resumed run hash equal to an uninterrupted one: how far the
// runner got is runner state, not observed data.
func TestDaysRunExcludedFromFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	d := NewWorld(smallConfig()).Run()
	fp := d.Fingerprint()
	d.DaysRun = 1
	if d.Fingerprint() != fp {
		t.Fatal("DaysRun must not be folded into Fingerprint")
	}
}
