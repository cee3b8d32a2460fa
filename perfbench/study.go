package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	searchseizure "repro"
	"repro/internal/brands"
	"repro/internal/core"
	"repro/internal/simclock"
)

// config resolves the workload's spec, with its worker counts.
func (b *bench) config() searchseizure.Config {
	cfg, err := b.w.Spec.Config()
	if err != nil {
		// workloads.json is fixed input; an invalid spec is a bug in it.
		panic(err)
	}
	workers := b.w.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cfg.CrawlWorkers = workers
	cfg.ObserveWorkers = workers
	return cfg
}

// build times one world build.
func (b *bench) build(s *sample, parent int, cfg searchseizure.Config, opts ...searchseizure.Option) *searchseizure.Study {
	c0 := readCPUClock()
	sp := b.cur.begin("new", parent)
	st, err := searchseizure.New(cfg, opts...)
	took := sp.end()
	if !b.checks.check(err == nil, fmt.Sprintf("build world: %v", err)) {
		return nil
	}
	s.setups = append(s.setups, took.Seconds())
	s.setupNet = append(s.setupNet, took.Seconds()*unstolen(c0, readCPUClock()))
	return st
}

// dayClock times day completions through the world's day hooks. The hooks
// run between days, so the world is quiescent while they sample.
type dayClock struct {
	s        *sample
	tr       *tracer
	parent   int
	last     time.Time
	dayStart time.Time
	onStart  func() // called once, at the first day start
}

func (c *dayClock) install(w *core.World) {
	w.OnDayStart = func(simclock.Day) {
		c.dayStart = time.Now()
		if c.onStart != nil {
			c.onStart()
			c.onStart = nil
		}
	}
	w.OnDayEnd = func(simclock.Day) {
		now := time.Now()
		c.s.intervals = append(c.s.intervals, ms(now.Sub(c.last)))
		c.last = now
		c.s.days++
		c.s.peakHeapB = max(c.s.peakHeapB, heapBytes())
		c.tr.add("day", c.parent, c.dayStart, now)
	}
}

// experiments computes every experiment table once and checks each is
// non-empty.
func (b *bench) experiments(s *sample, st *searchseizure.Study, parent int) {
	s.expMS = map[string]float64{}
	for _, id := range searchseizure.ExperimentIDs() {
		sp := b.cur.begin("experiment."+id, parent)
		tbl, err := st.Experiment(id)
		s.expMS[id] = ms(sp.end())
		b.checks.check(err == nil && tbl.String() != "", "experiment "+id+" is empty or failed")
	}
}

// studyRepeat is one library batch run: build the world (several times,
// untraced, so setup_s is a median), run every day, compute every table.
func (b *bench) studyRepeat(traced bool) *sample {
	s := &sample{}
	cfg := b.config()
	reg := registry(traced)
	root := b.cur.begin("repeat", 0)
	defer root.end()

	// Only the end-to-end run reports setup_s, so only it builds several times.
	setups := max(b.w.Setups, 1)
	if b.tr != nil {
		setups = 1
	}
	var st *searchseizure.Study
	for i := 0; i < setups; i++ {
		st = nil
		runtime.GC()
		if st = b.build(s, root.id, cfg, searchseizure.WithTelemetry(reg)); st == nil {
			return s
		}
	}
	var stages *stageLog
	if traced {
		stages = watchStages(reg)
	}
	clock := &dayClock{s: s, tr: b.cur}
	clock.install(st.World)

	// Collect the build's garbage first, so the run starts from the world
	// itself.
	runtime.GC()
	r0 := readRuntime()
	seg := b.cur.begin("segment", root.id)
	clock.parent, clock.last = seg.id, seg.start
	data, err := st.RunContext(context.Background())
	s.runWall = seg.end().Seconds()
	s.loopWall = s.runWall
	s.runEnded(r0)

	if b.checks.check(err == nil, fmt.Sprintf("study run: %v", err)) {
		fp := data.Fingerprint()
		if b.firstFP == 0 {
			b.firstFP = fp
		}
		b.checks.check(fp == b.firstFP, fmt.Sprintf("fingerprint %#x differs from the first repeat's %#x", fp, b.firstFP))
		b.checks.check(data.DaysRun == st.World.TargetDays(),
			fmt.Sprintf("ran %d of %d days", data.DaysRun, st.World.TargetDays()))
		b.checks.check(data.TotalPSRs() > 0, "no PSRs observed")
	}
	b.experiments(s, st, root.id)
	if traced {
		s.snap = reg.Snapshot()
		s.vertMS, s.straggler = stages.fanOut(len(brands.All()))
	}
	return s
}
