// Package searchseizure reproduces the measurement study "Search + Seizure:
// The Effectiveness of Interventions on SEO Campaigns" (Wang et al., IMC
// 2014) as a runnable system.
//
// The library simulates the counterfeit-luxury SEO ecosystem — black-hat
// campaigns operating cloaked doorways on compromised sites, storefronts
// with independent order counters, a search engine whose results they
// poison, users clicking through and buying, search-engine penalties and
// brand-holder domain seizures — and runs the paper's actual measurement
// pipeline against it: the Dagger and VanGogh crawlers, the storefront
// detector, an L1-regularised campaign classifier, the purchase-pair
// order-volume estimator and the intervention analyses.
//
// The quickest way in:
//
//	study, err := searchseizure.New(searchseizure.TestConfig())
//	if err != nil { ... }
//	data, err := study.RunContext(ctx)
//	tbl, _ := study.Experiment("table1")
//	fmt.Println(tbl)
//
// Every table and figure of the paper has an experiment id; see
// Experiments. Options wire in cross-cutting concerns: WithTelemetry
// attaches a metrics/tracing registry, WithFaults selects a fault-injection
// profile, WithLogger gets lifecycle logging. DESIGN.md documents what the
// paper measured on the real web and what this reproduction substitutes for
// it, including the observability contract.
package searchseizure

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/faults"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// Config sizes and seeds a study; see the field docs in internal/core.
// Use DefaultConfig (paper scale) or TestConfig (miniature) as a base.
type Config = core.Config

// Telemetry is the study's observability sink: lock-cheap counters, gauges,
// fixed-bucket histograms and stage spans, exposed as Prometheus text,
// expvar-style JSON, or programmatic snapshots. A nil *Telemetry is the
// no-op sink. See internal/telemetry for the full surface.
type Telemetry = telemetry.Registry

// NewTelemetry returns a live telemetry registry to pass to WithTelemetry.
func NewTelemetry() *Telemetry { return telemetry.New() }

// Table is an experiment result; it renders as text via String and as
// {id, title, text} via JSON marshalling.
type Table = export.Table

// DefaultConfig is the paper-scale configuration: 16 verticals x 100 terms
// x top-100 results crawled daily over the 2013-11-13..2014-07-15 window,
// full-size campaign infrastructure.
func DefaultConfig() Config { return core.DefaultConfig() }

// TestConfig is a miniature configuration with the same moving parts,
// suitable for tests and quick exploration (runs in seconds).
func TestConfig() Config { return core.TestConfig() }

// BenchConfig is the mid-size configuration the benchmark harness uses: big
// enough that every experiment has signal, small enough to iterate.
func BenchConfig() Config {
	cfg := core.DefaultConfig()
	cfg.Scale = 0.06
	cfg.TermsPerVertical = 10
	cfg.SlotsPerTerm = 50
	cfg.TailCampaigns = 18
	cfg.SeedDocsTarget = 350
	cfg.SupplierRecords = 40000
	return cfg
}

// Option configures New beyond the base Config. Options apply in order;
// later options win where they overlap.
type Option func(*studyOptions) error

type studyOptions struct {
	telemetry *telemetry.Registry
	telSet    bool
	profile   string
	profSet   bool
	logger    *log.Logger
	ckptDir   string
	ckptEvery int
	ckptSet   bool
}

// WithTelemetry attaches a telemetry registry to the study: the day
// pipeline, crawler, fault layer and classifier all record their runtime
// metrics and stage spans into it. Telemetry is observational only — a
// study produces a bit-identical Dataset.Fingerprint with or without it.
// Passing nil selects the no-op sink (the default).
func WithTelemetry(sink *Telemetry) Option {
	return func(o *studyOptions) error {
		o.telemetry = sink
		o.telSet = true
		return nil
	}
}

// WithFaults selects a deterministic fault-injection profile by name
// ("off", "moderate", "severe" — see internal/faults). It overrides
// cfg.Faults; unknown names surface as an error from New.
func WithFaults(profile string) Option {
	return func(o *studyOptions) error {
		if _, err := faults.Profile(profile); err != nil {
			return err
		}
		o.profile = profile
		o.profSet = true
		return nil
	}
}

// WithLogger directs study lifecycle logging (world build, run start,
// completion, cancellation) to l. nil (the default) logs nothing.
func WithLogger(l *log.Logger) Option {
	return func(o *studyOptions) error {
		o.logger = l
		return nil
	}
}

// WithCheckpoint enables durable day-boundary snapshots under dir: every
// `every` days (and at completion) the study's full resumable state is
// written atomically, and a new Study over the same dir auto-recovers from
// the newest good snapshot before its first RunContext, converging to the
// bit-identical fingerprint of an uninterrupted run. every <= 0 means every
// day. Corrupt or torn snapshots are detected by checksum and skipped in
// favour of the previous one. The snapshot is bound to the simulation-
// shaping config (a hash mismatch surfaces as an error from RunContext);
// telemetry and worker counts may differ across resume.
//
// The state is exported at the day boundary. When GOMAXPROCS > 1 its
// encode, write and fsync then run in the background while the next day
// runs, one save in flight at most; at GOMAXPROCS 1 they run inline.
// RunContext returns only once the last save is on disk, and Checkpoint
// waits for an in-flight save before writing its own.
func WithCheckpoint(dir string, every int) Option {
	return func(o *studyOptions) error {
		if dir == "" {
			return errors.New("checkpoint directory must be non-empty")
		}
		o.ckptDir = dir
		o.ckptEvery = every
		o.ckptSet = true
		return nil
	}
}

// Study is one end-to-end run: a simulated world plus the measurement
// dataset collected from it.
type Study struct {
	World *core.World
	Data  *core.Dataset

	log       *log.Logger
	ckpt      *checkpoint.Manager
	recovered bool
	// restoreErr is the failed restore's error: the world may be half
	// restored, so every later RunContext and Recover returns it.
	restoreErr error
}

// New builds the world for a configuration. Building trains the campaign
// classifier, deploys all infrastructure and mounts the web, but does not
// advance time; call RunContext. Options fold into the config
// before the world is built.
func New(cfg Config, opts ...Option) (*Study, error) {
	var o studyOptions
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&o); err != nil {
			return nil, fmt.Errorf("searchseizure: %w", err)
		}
	}
	if o.telSet {
		cfg.Telemetry = o.telemetry
	}
	if o.profSet {
		fc, err := faults.Profile(o.profile)
		if err != nil {
			return nil, fmt.Errorf("searchseizure: %w", err)
		}
		cfg.Faults = fc
	}
	s := &Study{log: o.logger}
	if s.log != nil {
		s.log.Printf("searchseizure: building world (seed=%d scale=%g faults=%v telemetry=%v)",
			cfg.Seed, cfg.Scale, cfg.Faults.Enabled(), cfg.Telemetry != nil)
	}
	s.World = core.NewWorld(cfg)
	if s.log != nil {
		s.log.Printf("searchseizure: world ready (%d stores, %d sim days, classifier CV accuracy %.3f)",
			len(s.World.Stores), s.World.Sim.Days(), s.World.CVAccuracy)
	}
	if o.ckptSet {
		mgr, err := checkpoint.NewManager(checkpoint.Options{
			Dir:       o.ckptDir,
			Every:     o.ckptEvery,
			Telemetry: cfg.Telemetry,
		})
		if err != nil {
			return nil, fmt.Errorf("searchseizure: %w", err)
		}
		s.ckpt = mgr
	}
	return s, nil
}

// RunContext executes the full longitudinal study under ctx. Cancellation
// is cooperative and day-granular: the pipeline checks ctx between days,
// never mid-day, so on cancellation RunContext returns a coherent partial
// dataset — every day in [0, Dataset.DaysRun) fully committed, and (under
// fault injection) the coverage mask intact — alongside ctx's error. A
// subsequent RunContext call resumes from the first unrun day; the dataset
// is cached only once a run completes, so a finished study's calls are
// idempotent.
func (s *Study) RunContext(ctx context.Context) (*core.Dataset, error) {
	if s.Data != nil {
		return s.Data, nil
	}
	if err := s.attachCheckpoints(); err != nil {
		return nil, err
	}
	if s.log != nil {
		s.log.Printf("searchseizure: run starting (%d days)", s.World.Sim.Days())
	}
	data, err := s.World.RunContext(ctx)
	if s.ckpt != nil {
		// The last day's save may still be in flight; return only once it
		// is on disk. Its error, if any, went to the save hook's log line.
		s.ckpt.Wait()
	}
	if err != nil {
		if s.log != nil {
			s.log.Printf("searchseizure: run cancelled after %d/%d days: %v",
				data.DaysRun, s.World.Sim.Days(), err)
		}
		return data, err
	}
	if s.log != nil {
		s.log.Printf("searchseizure: run complete (%d days, %d PSRs)", data.DaysRun, data.TotalPSRs())
	}
	s.Data = data
	return data, nil
}

// Recover performs checkpoint auto-recovery now instead of lazily inside
// the first RunContext: the newest good snapshot (if any) is restored and
// the save cadence is hooked into the day pipeline. Idempotent, and a
// no-op without WithCheckpoint. A failed restore leaves the world half
// restored, so its error comes back from every later Recover and
// RunContext, and the study never runs. Servers use it to declare
// readiness only after recovery has completed.
func (s *Study) Recover() error { return s.attachCheckpoints() }

// attachCheckpoints recovers from the newest good snapshot (once, before
// the first day runs) and hooks the save cadence into the day pipeline.
// A checkpoint-less study is a no-op here.
func (s *Study) attachCheckpoints() error {
	if s.ckpt == nil || s.recovered {
		return s.restoreErr
	}
	s.recovered = true
	w, mgr := s.World, s.ckpt
	snap, err := mgr.Load()
	switch {
	case errors.Is(err, checkpoint.ErrNoCheckpoint):
		// Fresh directory: start from day 0.
	case err != nil:
		// Every file present was damaged. The damage is counted in
		// telemetry and the study restarts from day 0 — losing progress,
		// never correctness.
		if s.log != nil {
			s.log.Printf("searchseizure: no loadable checkpoint, starting fresh: %v", err)
		}
	default:
		if rerr := w.RestoreSnapshot(snap); rerr != nil {
			s.restoreErr = fmt.Errorf("searchseizure: checkpoint restore: %w", rerr)
			return s.restoreErr
		}
		if s.log != nil {
			s.log.Printf("searchseizure: resumed from checkpoint at day %d/%d",
				snap.NextDay, w.Sim.Days())
		}
	}
	prev := w.OnDayEnd
	w.OnDayEnd = func(d simclock.Day) {
		if prev != nil {
			prev(d)
		}
		if !mgr.Due(int(d)) && int(d)+1 != w.Sim.Days() {
			return
		}
		// Export here, at the quiescent point; the encode, write and fsync
		// overlap the next day (see checkpoint.Manager.SaveAsync).
		mgr.SaveAsync(w.Snapshot(), func(serr error) {
			if s.log != nil {
				s.log.Printf("searchseizure: checkpoint save after day %d failed: %v", d, serr)
			}
		})
	}
	return nil
}

// Checkpoint writes a snapshot immediately, regardless of cadence. The
// study must be quiescent — before RunContext, or after it returned (a
// cancelled RunContext stops on a day boundary, so a cancel-then-Checkpoint
// shutdown sequence is always coherent). Returns an error if the study was
// built without WithCheckpoint.
func (s *Study) Checkpoint() error {
	if s.ckpt == nil {
		return errors.New("searchseizure: study has no checkpoint directory (use WithCheckpoint)")
	}
	return s.ckpt.Save(s.World.Snapshot())
}

// ErrUnknownExperiment is returned (wrapped) by Experiment when no
// experiment has the requested id; match it with errors.Is and recover the
// valid ids from ListExperiments.
var ErrUnknownExperiment = errors.New("unknown experiment")

// Experiment computes one of the paper's tables or figures by id (see
// ListExperiments for the registry), running the study first if needed.
// The returned Table renders as text via String and as JSON via Marshal;
// callers that only ever printed the result keep working, callers that
// want structure no longer have to parse text. An id outside the registry
// returns an error wrapping ErrUnknownExperiment — callers no longer have
// to guess ids or parse the message. A run that fails, such as one whose
// checkpoint does not restore, returns RunContext's error.
func (s *Study) Experiment(id string) (Table, error) {
	e, ok := experiments.ByID(id)
	if !ok {
		return Table{}, fmt.Errorf("searchseizure: %w %q (have %v)", ErrUnknownExperiment, id, ExperimentIDs())
	}
	data, err := s.RunContext(context.Background())
	if err != nil {
		return Table{}, err
	}
	return Table{ID: e.ID, Title: e.Title, Result: e.Run(data)}, nil
}

// ListExperiments lists the tables and figures this study can compute, in
// paper order. It is the per-study spelling of the package-level
// Experiments registry — the ids are valid inputs to Experiment.
func (s *Study) ListExperiments() []ExperimentInfo { return Experiments() }

// MustExperiment is Experiment, panicking on its error. It is intended
// for tests and examples, where an unknown id is a programming error;
// production callers should use Experiment and handle the error.
func (s *Study) MustExperiment(id string) Table {
	out, err := s.Experiment(id)
	if err != nil {
		panic(err)
	}
	return out
}

// Export writes the study's dataset artifacts (summary.json plus the
// per-vertical and per-campaign series CSVs) into dir, running the study
// first if needed and returning RunContext's error if that run fails.
func (s *Study) Export(dir string) error {
	data, err := s.RunContext(context.Background())
	if err != nil {
		return err
	}
	return export.Dir(dir, data)
}

// ExperimentInfo describes one reproducible table/figure.
type ExperimentInfo struct {
	ID    string
	Title string
}

// Experiments lists the reproducible tables and figures in paper order.
func Experiments() []ExperimentInfo {
	var out []ExperimentInfo
	for _, e := range experiments.All() {
		out = append(out, ExperimentInfo{ID: e.ID, Title: e.Title})
	}
	return out
}

// ExperimentIDs returns the sorted experiment ids.
func ExperimentIDs() []string {
	var ids []string
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// Ablations lists the design-choice studies. Unlike Experiments these build
// and run their own (alternate) worlds from a base config.
func Ablations() []ExperimentInfo {
	var out []ExperimentInfo
	for _, a := range experiments.Ablations() {
		out = append(out, ExperimentInfo{ID: a.ID, Title: a.Title})
	}
	return out
}

// RunAblation executes one ablation by id against a base configuration.
func RunAblation(id string, base Config) (Table, error) {
	a, ok := experiments.AblationByID(id)
	if !ok {
		return Table{}, fmt.Errorf("searchseizure: unknown ablation %q", id)
	}
	return Table{ID: a.ID, Title: a.Title, Result: a.Run(base)}, nil
}
