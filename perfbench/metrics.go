package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"repro/internal/telemetry"
)

// sample is what one repeat of a workload measured.
type sample struct {
	traced bool

	setups    []float64 // s: world builds (library) or launch round trips (service), wall
	setupNet  []float64 // s: the same, net of host steal
	days      int       // days executed, counting days a recovery re-runs
	runWall   float64   // s: run start to finished dataset
	loopWall  float64   // s: inside the day loops (excludes recover's rebuild)
	intervals []float64 // ms between consecutive day completions
	allocB    float64   // heap bytes allocated during the run
	peakHeapB float64   // heap object bytes, max over day boundaries
	liveHeapB float64   // heap live after the run, once garbage is collected
	gcCPU     float64   // s of GC CPU during the run
	totalCPU  float64   // s of available CPU during the run
	gcCycles  float64
	cpuS      float64            // s of this process's CPU time during the run
	stealS    float64            // s the host stole from this machine's CPUs during the run
	iowaitS   float64            // s this machine's CPUs idled with disk I/O outstanding during the run
	unstolen  float64            // cpuS / (cpuS + stealS): scales the run's wall times to net of steal
	expMS     map[string]float64 // per experiment id

	recoverS float64 // recover: fresh build + Recover until the first resumed day starts

	reads     []float64            // service: client read latency, ms
	routeMS   map[string][]float64 // service: client latency by route, ms
	readWallS float64

	// Traced repeats only.
	snap      telemetry.Snapshot // the study's registry
	svcSnap   telemetry.Snapshot // service: the Manager's registry
	vertMS    []float64          // every observe_vertical span, ms
	straggler []float64          // per day: slowest vertical ÷ mean vertical
	ckptBytes float64
	loadMS    float64
	restoreMS float64
}

// runEnded books the runtime counters since a, then collects garbage and
// reads what the finished study keeps live. Call it as soon as the run ends.
func (s *sample) runEnded(a rtStats) {
	b := readRuntime()
	s.allocB = b.allocBytes - a.allocBytes
	s.gcCPU = b.gcCPU - a.gcCPU
	s.totalCPU = b.totalCPU - a.totalCPU
	s.gcCycles = b.gcCycles - a.gcCycles
	s.cpuS = b.clock.cpu - a.clock.cpu
	s.stealS = b.clock.steal - a.clock.steal
	s.iowaitS = b.clock.iowait - a.clock.iowait
	s.unstolen = unstolen(a.clock, b.clock)
	// Two cycles: the first only moves sync.Pool contents to the victim
	// cache, the second frees them.
	runtime.GC()
	runtime.GC()
	s.liveHeapB = readGauge("/gc/heap/live:bytes")
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// dayQ is the tail percentile of day intervals. Both day percentiles are
// taken within each repeat and reported as the median over repeats: pooled
// over repeats, the top 5% of days can all come from one repeat that
// another tenant of the host slowed down. Within a repeat, p95 rests on 2
// days beyond it in service (40 days) and 15 in study and recover; the
// percentiles pooled over repeats, with their sample counts, are printed
// beside them.
const dayQ = 0.95

// e2e gathers the end-to-end figures of untraced repeats.
//
// The reported times are wall times net of host steal: each is scaled by
// the share of its CPU time the host did not steal (see unstolen), the
// day times by their repeat's share, setup_s by its build's. Steal comes
// in bursts of minutes that slowed whole runs by up to 1.9x on a shared
// 2-vCPU host while the program's own CPU time held; the raw wall times
// are printed beside the net ones.
type e2e struct {
	setup, daysPerS, dayP50, dayP95, allocMB, liveMB, peakMB []float64
	setupWall, daysPerSWall, dayP50Wall, dayP95Wall          []float64
	intervals, recoverS, reads, readsPerS                    []float64
	netIntervals                                             []float64
	days, beyond95                                           []int
	hosts                                                    []string
}

func endToEnd(ss []*sample) e2e {
	var e e2e
	for _, s := range ss {
		if s.days == 0 {
			continue // the repeat failed before its first day; its checks say why
		}
		e.setup = append(e.setup, s.setupNet...)
		e.setupWall = append(e.setupWall, s.setups...)
		e.daysPerS = append(e.daysPerS, float64(s.days)/(s.runWall*s.unstolen))
		e.daysPerSWall = append(e.daysPerSWall, float64(s.days)/s.runWall)
		e.allocMB = append(e.allocMB, s.allocB/1e6/float64(s.days))
		e.liveMB = append(e.liveMB, s.liveHeapB/1e6)
		e.peakMB = append(e.peakMB, s.peakHeapB/1e6)
		e.dayP50 = append(e.dayP50, median(s.intervals)*s.unstolen)
		e.dayP95 = append(e.dayP95, quantile(s.intervals, dayQ)*s.unstolen)
		e.dayP50Wall = append(e.dayP50Wall, median(s.intervals))
		e.dayP95Wall = append(e.dayP95Wall, quantile(s.intervals, dayQ))
		e.hosts = append(e.hosts, fmt.Sprintf("run wall_s=%.3f cpu_s=%.3f steal_s=%.2f iowait_s=%.2f unstolen=%.4f setup_wall_s=%.3f",
			s.runWall, s.cpuS, s.stealS, s.iowaitS, s.unstolen, s.setups))
		e.beyond95 = append(e.beyond95, beyond(s.intervals, dayQ))
		e.intervals = append(e.intervals, s.intervals...)
		for _, x := range s.intervals {
			e.netIntervals = append(e.netIntervals, x*s.unstolen)
		}
		e.days = append(e.days, s.days)
		if s.recoverS > 0 {
			e.recoverS = append(e.recoverS, s.recoverS)
		}
		if len(s.reads) > 0 {
			e.reads = append(e.reads, s.reads...)
			e.readsPerS = append(e.readsPerS, float64(len(s.reads))/s.readWallS)
		}
	}
	return e
}

// declared is the end-to-end set BENCHMARK.json declares.
func (e e2e) declared() []metric {
	return []metric{
		{"setup_s", "s", median(e.setup)},
		{"days_per_s", "days/s", median(e.daysPerS)},
		{"day_ms_p50", "ms", median(e.dayP50)},
		{"day_ms_p95", "ms", median(e.dayP95)},
		{"alloc_mb_per_day", "MB/day", median(e.allocMB)},
		{"live_heap_mb", "MB", median(e.liveMB)},
	}
}

// print reports every end-to-end metric with its quartiles and the sample
// count behind it, including the workload-specific ones.
func (e e2e) print() {
	fmt.Printf("days run per repeat: %v\n", e.days)
	for i, h := range e.hosts {
		fmt.Printf("repeat %d: %s\n", i, h)
	}
	spread := func(name, unit string, xs []float64) {
		if len(xs) == 0 {
			return
		}
		fmt.Printf("%-18s %12.4f %-7s median; q1=%.4f q3=%.4f n=%d\n",
			name, median(xs), unit, quantile(xs, 0.25), quantile(xs, 0.75), len(xs))
	}
	tail := func(name string, xs []float64, q float64) {
		if len(xs) == 0 {
			return
		}
		fmt.Printf("%-18s %12.4f %-7s p%g of n=%d, %d beyond\n",
			name, quantile(xs, q), "ms", 100*q, len(xs), beyond(xs, q))
	}
	spread("setup_s", "s", e.setup)
	spread("days_per_s", "days/s", e.daysPerS)
	spread("day_ms_p50", "ms", e.dayP50)
	spread("day_ms_p95", "ms", e.dayP95)
	tail("day_ms_p50 pooled", e.netIntervals, 0.5)
	tail("day_ms_p95 pooled", e.netIntervals, 0.95)
	spread("setup_s wall", "s", e.setupWall)
	spread("days_per_s wall", "days/s", e.daysPerSWall)
	spread("day_ms_p50 wall", "ms", e.dayP50Wall)
	spread("day_ms_p95 wall", "ms", e.dayP95Wall)
	if len(e.intervals) > 0 {
		fmt.Printf("days beyond each repeat's p95: %v\n", e.beyond95)
		fmt.Print("pooled day_ms deciles")
		for q := 0.1; q < 0.95; q += 0.1 {
			fmt.Printf(" %.1f", quantile(e.intervals, q))
		}
		fmt.Println()
	}
	spread("alloc_mb_per_day", "MB/day", e.allocMB)
	spread("live_heap_mb", "MB", e.liveMB)
	spread("peak_heap_mb", "MB", e.peakMB)
	spread("recover_s", "s", e.recoverS)
	spread("read_ms_p50", "ms", e.reads)
	tail("read_ms_p99", e.reads, 0.99)
	spread("reads_per_s", "req/s", e.readsPerS)
}

// layerUnits fixes the per-layer set BENCHMARK.json declares, in order.
var layerUnits = []struct{ name, unit string }{
	{"core.new_world_ms", "ms"},
	{"classify.train_ms", "ms"},
	{"classify.epochs", "count"},
	{"core.day_ms", "ms"},
	{"core.observe_ms_per_day", "ms/day"},
	{"core.commit_ms_per_day", "ms/day"},
	{"core.other_ms_per_day", "ms/day"},
	{"core.observe_vertical_ms_p95", "ms"},
	{"core.observe_straggler_ratio", "ratio"},
	{"traffic.ms_per_day", "ms/day"},
	{"parallel.observe_util_pct", "%"},
	{"parallel.crawl_util_pct", "%"},
	{"crawler.detector_runs_per_day", "count/day"},
	{"crawler.cache_hit_ratio", "ratio"},
	{"crawler.fetch_attempts_per_day", "count/day"},
	{"crawler.retry_ratio", "ratio"},
	{"crawler.fetch_failure_ratio", "ratio"},
	{"faults.injected_total", "count"},
	{"checkpoint.boundary_ms_per_day", "ms/day"},
	{"checkpoint.bytes_per_save", "B"},
	{"experiments.all_ms", "ms"},
	{"experiments.classifier_ms", "ms"},
	{"runtime.gc_cpu_pct", "%"},
	{"runtime.gc_cycles_per_day", "count/day"},
	{"telemetry.overhead_pct", "%"},
}

// layers derives one traced repeat's per-layer values. Layer metrics that
// only some workloads exercise are returned in extra.
func layers(s *sample) (v, extra map[string]float64, counts map[string]int64) {
	h := func(name string) telemetry.HistogramSnapshot { return s.snap.Histograms[name] }
	c := func(name string) float64 { return float64(s.snap.Counters[name]) }
	days := float64(s.days)
	dayMS := h("stage_day_ms").Sum
	obs, com, traf := h("stage_observe_ms").Sum, h("stage_commit_ms").Sum, h("stage_traffic_ms").Sum
	util := func(pool string) float64 {
		busy, idle := c("pool_"+pool+"_busy_ns_total"), c("pool_"+pool+"_idle_ns_total")
		return 100 * ratio(busy, busy+idle)
	}
	hits := c("crawler_cache_hits_total") + c("crawler_inflight_shared_total")
	det := c("crawler_detector_runs_total")
	attempts := c("crawler_fetch_attempts_total")
	var injected float64
	for name, n := range s.snap.Counters {
		if strings.HasPrefix(name, "faults_injected_") {
			injected += float64(n)
		}
	}
	builds := float64(h("stage_train_ms").Count)
	var expAll float64
	for _, ms := range s.expMS {
		expAll += ms
	}
	v = map[string]float64{
		"core.new_world_ms":              1e3 * median(s.setupNet),
		"classify.train_ms":              ratio(h("stage_train_ms").Sum, builds),
		"classify.epochs":                ratio(c("classify_epochs_total"), builds),
		"core.day_ms":                    dayMS / days,
		"core.observe_ms_per_day":        obs / days,
		"core.commit_ms_per_day":         com / days,
		"core.other_ms_per_day":          (dayMS - obs - com - traf) / days,
		"core.observe_vertical_ms_p95":   quantile(s.vertMS, 0.95),
		"core.observe_straggler_ratio":   median(s.straggler),
		"traffic.ms_per_day":             traf / days,
		"parallel.observe_util_pct":      util("observe"),
		"parallel.crawl_util_pct":        util("crawl"),
		"crawler.detector_runs_per_day":  det / days,
		"crawler.cache_hit_ratio":        ratio(hits, hits+det),
		"crawler.fetch_attempts_per_day": attempts / days,
		"crawler.retry_ratio":            ratio(c("crawler_fetch_retries_total"), attempts),
		"crawler.fetch_failure_ratio":    ratio(c("crawler_fetch_failures_total"), attempts),
		"faults.injected_total":          injected,
		"checkpoint.boundary_ms_per_day": (s.loopWall*1e3 - dayMS) / days,
		"checkpoint.bytes_per_save":      s.ckptBytes,
		"experiments.all_ms":             expAll,
		"experiments.classifier_ms":      s.expMS["classifier"],
		"runtime.gc_cpu_pct":             100 * ratio(s.gcCPU, s.totalCPU),
		"runtime.gc_cycles_per_day":      s.gcCycles / days,
	}
	extra = map[string]float64{}
	if n := h("checkpoint_save_ms").Count; n > 0 {
		extra["checkpoint.save_ms_p50"] = h("checkpoint_save_ms").Quantile(0.5)
		extra["checkpoint.saves"] = float64(n)
	}
	if s.loadMS > 0 {
		extra["checkpoint.load_ms"] = s.loadMS
		extra["core.restore_ms"] = s.restoreMS
	}
	for route, ms := range s.routeMS {
		if route == "launch" {
			extra["studysvc.launch_ms"] = median(ms)
			continue
		}
		extra["studysvc."+route+"_ms_p50"] = median(ms)
	}
	for _, route := range []string{"get", "experiment", "serp", "domains"} {
		if hs, ok := s.svcSnap.Histograms["api_req_"+route+"_us"]; ok && hs.Count > 0 {
			extra["studysvc.server_"+route+"_us_p50"] = hs.Quantile(0.5)
		}
	}
	// Coverage of the day-loop wall time: by the day stages, by stages
	// plus the checkpoint saves the registry times, and the rest, which no
	// span covers (snapshot export, hooks, event delivery).
	loopMS := s.loopWall * 1e3
	saves := h("checkpoint_save_ms").Sum
	extra["trace.day_stages_pct"] = 100 * ratio(dayMS, loopMS)
	extra["trace.stages_and_saves_pct"] = 100 * ratio(dayMS+saves, loopMS)
	extra["trace.unattributed_pct"] = 100 * ratio(loopMS-dayMS-saves, loopMS)
	counts = map[string]int64{
		"classify_epochs_total":       int64(c("classify_epochs_total")),
		"crawler_detector_runs_total": int64(det),
		"crawler_hits_plus_shared":    int64(hits),
		"crawler_lookups":             int64(hits + det), // cache_hit_ratio's base
		"crawler_fetch_attempts":      int64(attempts),   // retry and failure ratios' base
		"faults_injected_total":       int64(injected),
		"checkpoint_bytes_per_save":   int64(s.ckptBytes),
	}
	return v, extra, counts
}

// perLayer reports the medians over traced repeats, checks that every
// count repeats exactly, and prints the workload-specific layer metrics.
func (b *bench) perLayer(traced, plain []*sample) []metric {
	vals := map[string][]float64{}
	extras := map[string][]float64{}
	counts := map[string][]int64{}
	for _, s := range traced {
		if s.days == 0 {
			continue
		}
		v, extra, cnt := layers(s)
		for k, x := range v {
			vals[k] = append(vals[k], x)
		}
		for k, x := range extra {
			extras[k] = append(extras[k], x)
		}
		for k, x := range cnt {
			counts[k] = append(counts[k], x)
		}
	}
	// A count that moves between identical repeats is reported as
	// nondeterministic, with the first repeat's value, never averaged.
	nondet := map[string]bool{}
	for _, name := range sortedKeys(counts) {
		xs := counts[name]
		same := true
		for _, x := range xs {
			same = same && x == xs[0]
		}
		if same {
			fmt.Printf("count %-28s %d (repeats exactly over %d traced repeats)\n", name, xs[0], len(xs))
		} else {
			fmt.Printf("count %-28s NONDETERMINISTIC %v\n", name, xs)
			nondet[name] = true
		}
	}
	for _, s := range traced[:min(len(traced), 1)] {
		fmt.Printf("split crawler_cache_hits_total=%d crawler_inflight_shared_total=%d (scheduling-dependent; the ratio uses their sum)\n",
			s.snap.Counters["crawler_cache_hits_total"], s.snap.Counters["crawler_inflight_shared_total"])
	}
	pick := map[string]string{
		"classify.epochs":               "classify_epochs_total",
		"crawler.detector_runs_per_day": "crawler_detector_runs_total",
		"faults.injected_total":         "faults_injected_total",
		"checkpoint.bytes_per_save":     "checkpoint_bytes_per_save",
	}

	untraced, withTel := endToEnd(plain).daysPerS, endToEnd(traced).daysPerS
	overhead := 100 * ratio(median(untraced)-median(withTel), median(untraced))
	fmt.Printf("telemetry overhead %.3f%% of days_per_s: untraced %v, traced %v; untraced spread (max-min)/median %.3f%%\n",
		overhead, untraced, withTel, 100*(quantile(untraced, 1)-quantile(untraced, 0))/median(untraced))

	var out []metric
	for _, lu := range layerUnits {
		var x float64
		switch {
		case lu.name == "telemetry.overhead_pct":
			x = overhead
		case nondet[pick[lu.name]]:
			x = vals[lu.name][0]
		default:
			x = median(vals[lu.name])
		}
		out = append(out, metric{lu.name, lu.unit, x})
		fmt.Printf("%-32s %14.4f %s\n", lu.name, x, lu.unit)
	}
	for _, k := range sortedKeys(extras) {
		fmt.Printf("%-32s %14.4f %-9s (median of %d traced repeats; not in every workload)\n",
			k, median(extras[k]), unitOf(k), len(extras[k]))
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// unitOf names the unit of a workload-specific layer metric by its suffix.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_us_p50"):
		return "us"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, ".saves"):
		return "count"
	}
	return "ms"
}
