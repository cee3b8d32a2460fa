// Package cli is the flag plumbing the repo's commands share. Every
// study-running command takes the same -seed and -faults flags plus the
// observability switches -telemetry and -progress; registering them here
// keeps the spelling, defaults, help text and validation identical across
// binaries instead of drifting per-command.
package cli

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/faults"
	"repro/internal/telemetry"
)

// StudyFlags holds the shared flags after registration. Read the resolved
// values only after the owning FlagSet has been parsed.
type StudyFlags struct {
	seed      *uint64
	faultsArg *string
	telemetry *bool
	progress  *bool

	once sync.Once
	reg  *telemetry.Registry
}

// RegisterStudyFlags registers the shared study flags on fs:
//
//	-seed       study seed (defaultSeed)
//	-faults     fault-injection profile, validated by the study spec
//	-telemetry  collect runtime metrics and stage spans (defaultTelemetry)
//	-progress   live per-day stage reporter (implies -telemetry)
func RegisterStudyFlags(fs *flag.FlagSet, defaultSeed uint64, defaultTelemetry bool) *StudyFlags {
	f := &StudyFlags{}
	f.seed = fs.Uint64("seed", defaultSeed, "study seed (same seed => identical results)")
	f.faultsArg = fs.String("faults", "off",
		fmt.Sprintf("fault-injection profile for the crawl pipeline (%s)", strings.Join(faults.Profiles(), "|")))
	f.telemetry = fs.Bool("telemetry", defaultTelemetry,
		"collect runtime metrics and stage spans (see also -progress)")
	f.progress = fs.Bool("progress", false,
		"print a live per-day stage report to stderr (implies -telemetry)")
	return f
}

// Seed returns the parsed -seed value.
func (f *StudyFlags) Seed() uint64 { return *f.seed }

// FaultProfileName returns the raw -faults argument.
func (f *StudyFlags) FaultProfileName() string { return *f.faultsArg }

// TelemetryEnabled reports whether any telemetry sink was requested
// (-telemetry, or -progress which needs one).
func (f *StudyFlags) TelemetryEnabled() bool { return *f.telemetry || *f.progress }

// ProgressEnabled reports whether -progress was set.
func (f *StudyFlags) ProgressEnabled() bool { return *f.progress }

// Registry returns the command's telemetry registry: a live registry when
// -telemetry or -progress was given, nil (the no-op sink) otherwise. The
// same registry is returned on every call.
func (f *StudyFlags) Registry() *telemetry.Registry {
	f.once.Do(func() {
		if f.TelemetryEnabled() {
			f.reg = telemetry.New()
		}
	})
	return f.reg
}

// EnableProgress installs the -progress live stage reporter on reg: one
// line per completed simulation day to w, with the day's wall time and the
// cumulative observed/lost slot counters. A nil reg is a no-op. The
// reporter only reads telemetry — it cannot perturb study results — but
// the span observer fires on the pipeline goroutine, so keep w cheap
// (stderr, a buffered file), not a blocking pipe.
func EnableProgress(reg *telemetry.Registry, w io.Writer) {
	if reg == nil {
		return
	}
	slots := reg.Counter("core_slots_observed_total")
	lost := reg.Counter("core_slots_lost_total")
	reg.SetSpanObserver(func(ev telemetry.SpanEvent) {
		if ev.Stage != "day" {
			return
		}
		fmt.Fprintf(w, "day %4d  %8.1fms  slots=%d lost=%d\n",
			ev.Day, float64(ev.Duration.Microseconds())/1000, slots.Value(), lost.Value())
	})
}
