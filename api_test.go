package searchseizure

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
)

// tinyConfig trims TestConfig further so API-contract tests that run whole
// studies stay fast.
func tinyConfig() Config {
	cfg := TestConfig()
	cfg.TermsPerVertical = 3
	cfg.SlotsPerTerm = 20
	cfg.ExtendedTail = false
	return cfg
}

// mustNew is New without options, failing tb on error.
func mustNew(tb testing.TB, cfg Config) *Study {
	tb.Helper()
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// mustRun runs s to completion, failing tb on error.
func mustRun(tb testing.TB, s *Study) *core.Dataset {
	tb.Helper()
	d, err := s.RunContext(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

func TestNewRejectsUnknownFaultProfile(t *testing.T) {
	if _, err := New(tinyConfig(), WithFaults("bogus")); err == nil {
		t.Fatal("New must reject an unknown fault profile")
	}
}

func TestNewAcceptsNamedProfileAndOffAlias(t *testing.T) {
	for _, name := range []string{"", "off", "moderate"} {
		if _, err := New(tinyConfig(), WithFaults(name)); err != nil {
			t.Errorf("WithFaults(%q): %v", name, err)
		}
	}
}

// TestWithTelemetryObservesStudy: a study built through the options API
// must feed the registry — the day counter matches the simulated window and
// the classifier reported training epochs.
func TestWithTelemetryObservesStudy(t *testing.T) {
	reg := NewTelemetry()
	s, err := New(tinyConfig(), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	counters := reg.Snapshot().Counters
	if got := counters["core_days_total"]; got != int64(s.World.Sim.Days()) {
		t.Errorf("core_days_total = %d, want %d", got, s.World.Sim.Days())
	}
	if counters["classify_epochs_total"] == 0 {
		t.Error("classify_epochs_total never incremented")
	}
}

// TestStudyRunContextCancellation: cancelling before the run starts must
// yield the context error plus a coherent zero-day dataset, leave the study
// uncached, and let a second call with a live context run to completion.
func TestStudyRunContextCancellation(t *testing.T) {
	s, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	data, rerr := s.RunContext(ctx)
	if !errors.Is(rerr, context.Canceled) {
		t.Fatalf("RunContext error = %v, want context.Canceled", rerr)
	}
	if data == nil || data.DaysRun != 0 {
		t.Fatalf("cancelled-before-start dataset = %+v", data)
	}

	full, rerr := s.RunContext(context.Background())
	if rerr != nil {
		t.Fatalf("resumed RunContext: %v", rerr)
	}
	if full.DaysRun != s.World.Sim.Days() {
		t.Fatalf("resumed DaysRun = %d, want %d", full.DaysRun, s.World.Sim.Days())
	}
	// Completed runs are cached: RunContext must hand back the same dataset.
	if mustRun(t, s) != full {
		t.Fatal("completed dataset was not cached")
	}
}

// TestExperimentReturnsTable: the redesigned Experiment returns a typed
// Table whose String and JSON forms both carry the rendered text.
func TestExperimentReturnsTable(t *testing.T) {
	s, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := s.Experiment("table1")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID != "table1" || tbl.Title == "" {
		t.Fatalf("table metadata = %q / %q", tbl.ID, tbl.Title)
	}
	js, err := tbl.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), `"id": "table1"`) && !strings.Contains(string(js), `"id":"table1"`) {
		t.Fatalf("table JSON missing id: %s", js)
	}
	if !strings.Contains(string(js), "Vertical") {
		t.Fatalf("table JSON missing rendered text: %s", js)
	}
}
