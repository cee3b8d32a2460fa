package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	searchseizure "repro"
	"repro/internal/brands"
	"repro/internal/simclock"
)

// prepareRecover runs the reference once per invocation, outside the timed
// repeats: an uninterrupted run of the same spec, whose fingerprint every
// resumed run must reproduce.
func (b *bench) prepareRecover() {
	st, err := searchseizure.New(b.config())
	if !b.checks.check(err == nil, fmt.Sprintf("reference build: %v", err)) {
		return
	}
	data, err := st.RunContext(context.Background())
	if b.checks.check(err == nil && data.DaysRun == st.World.TargetDays(),
		fmt.Sprintf("reference run: %v after %d days", err, data.DaysRun)) {
		b.firstFP = data.Fingerprint()
	}
}

// recoverRepeat is one kill-and-recover cycle: run with checkpoints until
// the middle day, drop the study without a final checkpoint (as a crash
// would), build a fresh one over the same directory, Recover, and run to
// completion.
func (b *bench) recoverRepeat(traced bool) *sample {
	s := &sample{}
	cfg := b.config()
	reg := registry(traced)
	dir, err := os.MkdirTemp(b.out, "ckpt-")
	if !b.checks.check(err == nil, fmt.Sprintf("checkpoint dir: %v", err)) {
		return s
	}
	defer os.RemoveAll(dir)
	opts := []searchseizure.Option{
		searchseizure.WithTelemetry(reg),
		searchseizure.WithCheckpoint(dir, b.w.Spec.CheckpointEvery),
	}
	root := b.cur.begin("repeat", 0)
	defer root.end()

	st := b.build(s, root.id, cfg, opts...)
	if st == nil {
		return s
	}
	target := st.World.TargetDays()
	mid := target / 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stages1, stages2 *stageLog
	if traced {
		stages1 = watchStages(reg)
	}
	clock := &dayClock{s: s, tr: b.cur}
	clock.install(st.World)
	timeDay := st.World.OnDayEnd
	st.World.OnDayEnd = func(d simclock.Day) {
		timeDay(d)
		if int(d)+1 == mid {
			cancel()
		}
	}
	runtime.GC()
	r0 := readRuntime()
	seg1 := b.cur.begin("segment", root.id)
	clock.parent, clock.last = seg1.id, seg1.start
	_, err = st.RunContext(ctx)
	s.loopWall = seg1.end().Seconds()
	b.checks.check(errors.Is(err, context.Canceled) && st.World.NextDay() == mid,
		fmt.Sprintf("cancel at day %d: stopped at %d with %v", mid, st.World.NextDay(), err))

	st = nil
	// recovery spans the fresh build, Recover, and the resumed run's start.
	recovery := b.cur.begin("recovery", root.id)
	st2 := b.build(s, recovery.id, cfg, opts...)
	if st2 == nil {
		return s
	}
	clock2 := &dayClock{s: s, tr: b.cur, onStart: func() {
		s.recoverS = recovery.end().Seconds()
	}}
	// Hooks go in before Recover, which chains the checkpoint cadence
	// behind them.
	clock2.install(st2.World)
	loaded := reg.Snapshot().Histograms["checkpoint_load_ms"].Sum
	rec := b.cur.begin("recover", recovery.id)
	err = st2.Recover()
	recoverMS := ms(rec.end())
	resume := st2.World.NextDay()
	b.checks.check(err == nil && resume > 0 && resume <= mid,
		fmt.Sprintf("recover: resumed at day %d (cancelled at %d): %v", resume, mid, err))
	if traced {
		s.loadMS = reg.Snapshot().Histograms["checkpoint_load_ms"].Sum - loaded
		s.restoreMS = recoverMS - s.loadMS
		stages2 = watchStages(reg)
	}

	seg2 := b.cur.begin("segment", root.id)
	clock2.parent, clock2.last = seg2.id, seg2.start
	data, err := st2.RunContext(context.Background())
	d2 := seg2.end()
	s.loopWall += d2.Seconds()
	s.runWall = seg2.start.Add(d2).Sub(seg1.start).Seconds()
	s.runEnded(r0)
	if b.checks.check(err == nil && data.DaysRun == target,
		fmt.Sprintf("resumed run: %v after %d of %d days", err, data.DaysRun, target)) {
		fp := data.Fingerprint()
		b.checks.check(fp == b.firstFP,
			fmt.Sprintf("resumed fingerprint %#x differs from the uninterrupted run's %#x", fp, b.firstFP))
	}
	b.experiments(s, st2, root.id)
	if traced {
		s.snap = reg.Snapshot()
		for _, l := range []*stageLog{stages1, stages2} {
			v, str := l.fanOut(len(brands.All()))
			s.vertMS = append(s.vertMS, v...)
			s.straggler = append(s.straggler, str...)
		}
		s.ckptBytes = checkpointBytes(dir)
	}
	return s
}

// checkpointBytes is the mean size of the snapshots left in dir.
func checkpointBytes(dir string) float64 {
	files, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	var sum float64
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil {
			sum += float64(fi.Size())
		}
	}
	return ratio(sum, float64(len(files)))
}
