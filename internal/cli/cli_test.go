package cli

import (
	"flag"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/telemetry"
)

func parse(t *testing.T, args ...string) *StudyFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := RegisterStudyFlags(fs, 7, false)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDefaults(t *testing.T) {
	f := parse(t)
	if f.Seed() != 7 {
		t.Fatalf("seed = %d", f.Seed())
	}
	if f.FaultProfileName() != "off" {
		t.Fatalf("faults = %q", f.FaultProfileName())
	}
	fc, err := faults.Profile(f.FaultProfileName())
	if err != nil || fc.Enabled() {
		t.Fatalf("default fault profile = %+v, %v", fc, err)
	}
	if f.Registry() != nil {
		t.Fatal("telemetry off must yield the nil (no-op) registry")
	}
}

func TestFaultProfileResolution(t *testing.T) {
	fc, err := faults.Profile(parse(t, "-faults", "moderate").FaultProfileName())
	if err != nil || !fc.Enabled() {
		t.Fatalf("moderate = %+v, %v", fc, err)
	}
	if _, err := faults.Profile(parse(t, "-faults", "bogus").FaultProfileName()); err == nil {
		t.Fatal("unknown profile must error")
	}
}

func TestTelemetryFlagYieldsStableRegistry(t *testing.T) {
	f := parse(t, "-telemetry")
	r := f.Registry()
	if r == nil {
		t.Fatal("-telemetry must yield a live registry")
	}
	if f.Registry() != r {
		t.Fatal("Registry must be stable across calls")
	}
}

func TestProgressImpliesTelemetry(t *testing.T) {
	f := parse(t, "-progress")
	if !f.TelemetryEnabled() || f.Registry() == nil {
		t.Fatal("-progress must imply a live registry")
	}
}

func TestEnableProgressReportsDays(t *testing.T) {
	reg := telemetry.New()
	var sb strings.Builder
	EnableProgress(reg, &sb)
	reg.Counter("core_slots_observed_total").Add(42)
	day := reg.Stage("day")
	day.Start(3, "").End()
	reg.Stage("observe").Start(3, "").End() // non-day spans must not print
	out := sb.String()
	if !strings.Contains(out, "day    3") || !strings.Contains(out, "slots=42") {
		t.Fatalf("progress line = %q", out)
	}
	if strings.Count(out, "\n") != 1 {
		t.Fatalf("expected exactly one line, got %q", out)
	}
	EnableProgress(nil, &sb) // nil registry must be a no-op
}
