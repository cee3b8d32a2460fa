package core

import (
	"context"
	"encoding/json"
	"errors"
	"maps"
	"os"
	"runtime"
	"sort"
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
// decision counters and stage span counts in the snapshot must be
// identical between a 1-worker and an 8-worker run. Counters that measure
// this machine, not the study, are excluded (see workOf). Under fault
// injection this holds because each domain is checked by one crawl job a
// day, vertical by vertical: which sample URL is fetched, and so which
// fetches fail, does not depend on scheduling.
//
// Because the work repeats exactly, it is also pinned: the serial run must
// match testdata/work_counts.json counter for counter, so a change that
// makes the pipeline do more work (detector runs, fetches, spans, pool
// runs) fails here, and one that does less must re-pin. Outside -race the
// serial run's mallocs per simulated day must stay within 5% of the pin.
// On any failure the test prints the replacement file.
func TestTelemetryCountersDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	pins := readWorkPins(t)
	measured := maps.Clone(pins)
	for _, profile := range []string{"off", "moderate", "severe"} {
		t.Run(profile, func(t *testing.T) {
			fc, err := faults.Profile(profile)
			if err != nil {
				t.Fatal(err)
			}
			runWith := func(workers int) workPin {
				cfg := smallConfig()
				cfg.Faults = fc
				cfg.ObserveWorkers = workers
				cfg.CrawlWorkers = workers
				cfg.Telemetry = telemetry.New()
				w := NewWorld(cfg)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				w.Run()
				runtime.ReadMemStats(&after)
				return workPin{
					Work:          workOf(cfg.Telemetry.Snapshot()),
					MallocsPerDay: (after.Mallocs - before.Mallocs) / uint64(w.TargetDays()),
				}
			}

			serial := runWith(1)
			par := runWith(8)
			if len(serial.Work) == 0 {
				t.Fatal("telemetry-on run recorded no counters")
			}
			for name, want := range serial.Work {
				if got, ok := par.Work[name]; !ok || got != want {
					t.Errorf("counter %s: serial=%d parallel=%d (present=%v)", name, want, got, ok)
				}
			}
			if fc.Enabled() && serial.Work["crawler_fetch_attempts_total"] == 0 {
				t.Fatal("faulted run made no resilient fetch attempts")
			}
			for name := range par.Work {
				if _, ok := serial.Work[name]; !ok {
					t.Errorf("counter %s present only in the parallel run", name)
				}
			}

			pin, pinned := pins[profile]
			if !pinned {
				t.Errorf("profile %s has no work pin", profile)
			}
			checkWork(t, serial.Work, pin.Work)
			got := workPin{Work: serial.Work, MallocsPerDay: pin.MallocsPerDay}
			if !raceEnabled {
				got.MallocsPerDay = serial.MallocsPerDay
				t.Logf("mallocs per day: %d (pin %d)", serial.MallocsPerDay, pin.MallocsPerDay)
				if limit := pin.MallocsPerDay + pin.MallocsPerDay/20; serial.MallocsPerDay > limit {
					t.Errorf("mallocs per day: %d > %d (pin %d + 5%%)", serial.MallocsPerDay, limit, pin.MallocsPerDay)
				}
			}
			measured[profile] = got
		})
	}
	if t.Failed() {
		out, err := json.MarshalIndent(measured, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("replacement for %s:\n%s", workPinsFile, out)
	}
}

// workPinsFile pins, per fault profile, the work a smallConfig study does.
const workPinsFile = "testdata/work_counts.json"

// workPin is one fault profile's pinned work: every decision counter and
// every stage_* span count (keyed by the stage histogram's name), plus the
// serial run's mallocs per simulated day.
type workPin struct {
	Work          map[string]int64 `json:"work"`
	MallocsPerDay uint64           `json:"mallocs_per_day"`
}

func readWorkPins(t *testing.T) map[string]workPin {
	t.Helper()
	pins := map[string]workPin{}
	raw, err := os.ReadFile(workPinsFile)
	if err != nil {
		t.Error(err)
		return pins
	}
	if err := json.Unmarshal(raw, &pins); err != nil {
		t.Errorf("%s: %v", workPinsFile, err)
	}
	return pins
}

// workOf extracts the deterministic work from a snapshot: every counter
// but those that measure the machine, and the span count of every stage_*
// histogram. The *_ns_total tallies are wall clock, and the training
// pool's job count is its class-block count, min(GOMAXPROCS, classes); the
// epochs trained and the training runs stay pinned.
func workOf(snap telemetry.Snapshot) map[string]int64 {
	work := make(map[string]int64, len(snap.Counters)+len(snap.Histograms))
	for name, v := range snap.Counters {
		if !strings.HasSuffix(name, "_ns_total") && name != "pool_train_jobs_total" {
			work[name] = v
		}
	}
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, "stage_") {
			work[name] = h.Count
		}
	}
	return work
}

// checkWork reports every counter where got departs from the pin.
func checkWork(t *testing.T, got, pin map[string]int64) {
	t.Helper()
	for _, name := range sortedNames(got) {
		v := got[name]
		want, ok := pin[name]
		switch {
		case !ok:
			t.Errorf("counter %s = %d is not pinned", name, v)
		case v > want:
			t.Errorf("counter %s = %d > pin %d: more work", name, v, want)
		case v < want:
			t.Errorf("counter %s = %d < pin %d: less work: re-pin in this PR", name, v, want)
		}
	}
	for _, name := range sortedNames(pin) {
		if _, ok := got[name]; !ok {
			t.Errorf("pinned counter %s is missing", name)
		}
	}
}

func sortedNames(m map[string]int64) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
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
