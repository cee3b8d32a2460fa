// Package telemetry is the runtime observability layer for the measurement
// pipeline: lock-cheap atomic counters and gauges, fixed-bucket latency
// histograms, and span-style stage tracing keyed by (day, stage, vertical).
//
// Two contracts govern the design:
//
// Determinism neutrality. Telemetry only ever *reads* the pipeline — it
// never draws randomness, feeds a decision, or mutates shared study state —
// so a study produces a bit-identical Dataset (and Fingerprint) with
// telemetry enabled or disabled, at any GOMAXPROCS. Counter values are
// themselves deterministic, with or without faults; duration histograms and
// pool utilisation measure wall time and are the one legitimately
// nondeterministic surface.
//
// Near-zero disabled cost. A nil *Registry is the no-op sink: every
// constructor returns a nil handle and every handle method nil-checks and
// returns. The hot path pays one predictable branch per call — no
// interface dispatch, no allocation, no time.Now — which the
// BenchmarkNoop* benchmarks pin.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry owns a process's metric handles. The zero of *Registry (nil) is
// a valid no-op sink; New returns a live one. Handle registration takes a
// mutex once per unique name; all updates afterwards are lock-free.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	spanObs atomic.Pointer[func(SpanEvent)]
	start   time.Time
}

// New returns a live registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		start:    time.Now(),
	}
}

// Counter is a monotonically increasing atomic count. A nil *Counter (from
// a nil registry) is inert.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.Add(1)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter returns (registering on first use) the named counter; nil on a
// nil registry. Names must be Prometheus-legal ([a-z0-9_:]).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge is an instantaneous atomic value with a high-watermark. A nil
// *Gauge is inert.
type Gauge struct {
	name string
	v    atomic.Int64
	max  atomic.Int64
}

// Add shifts the gauge, updating the watermark.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	v := g.v.Add(delta)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max returns the gauge's high-watermark.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// Gauge returns (registering on first use) the named gauge; nil on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram is a fixed-bucket distribution: bounds are upper edges in
// ascending order, with an implicit +Inf overflow bucket. Counts and the
// running sum are atomic; Observe never allocates. A nil *Histogram is
// inert.
type Histogram struct {
	name   string
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// DurationBuckets is the default latency bucket layout, in milliseconds:
// sub-millisecond stage work up through multi-second whole-study phases.
func DurationBuckets() []float64 {
	return []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 10000}
}

// CountBuckets is a generic small-count layout (queue depths, attempts).
func CountBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Histogram returns (registering on first use) the named histogram; nil on
// a nil registry. The bucket layout is fixed by the first registration.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{
			name:   name,
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// SpanEvent is one completed stage span, delivered to the span observer
// (the cmd/searchseizure -progress reporter hangs off this).
type SpanEvent struct {
	Stage    string
	Day      int
	Vertical string
	Duration time.Duration
}

// Stage is a pre-resolved span factory for one pipeline stage; resolving it
// once (at world construction) keeps Start/End off the registry mutex. A
// nil *Stage produces inert spans.
type Stage struct {
	reg *Registry
	// name identifies the stage ("observe", "commit", "traffic", "day").
	name string
	dur  *Histogram
}

// Stage returns a span factory for the named stage; nil on a nil registry.
// Durations land in the stage_<name>_ms histogram.
func (r *Registry) Stage(name string) *Stage {
	if r == nil {
		return nil
	}
	return &Stage{reg: r, name: name, dur: r.Histogram("stage_"+name+"_ms", DurationBuckets())}
}

// Span is one in-flight stage execution. The zero Span (from a nil Stage)
// is inert; End on it returns immediately without reading the clock.
type Span struct {
	st       *Stage
	day      int
	vertical string
	t0       time.Time
}

// Start opens a span keyed by (day, stage, vertical). Vertical may be ""
// for stages that are not per-vertical.
func (st *Stage) Start(day int, vertical string) Span {
	if st == nil {
		return Span{}
	}
	return Span{st: st, day: day, vertical: vertical, t0: time.Now()}
}

// End closes the span: its duration feeds the stage histogram and, when a
// span observer is installed, a SpanEvent is delivered synchronously (the
// observer must be safe for concurrent calls — per-vertical spans end on
// pool workers).
func (s Span) End() {
	if s.st == nil {
		return
	}
	d := time.Since(s.t0)
	s.st.dur.Observe(float64(d) / float64(time.Millisecond))
	if f := s.st.reg.spanObs.Load(); f != nil {
		(*f)(SpanEvent{Stage: s.st.name, Day: s.day, Vertical: s.vertical, Duration: d})
	}
}

// SetSpanObserver installs fn as the span observer (nil uninstalls). The
// observer must not mutate study state: it exists for progress reporting,
// and feeding its view back into the pipeline would break the determinism
// contract.
func (r *Registry) SetSpanObserver(fn func(SpanEvent)) {
	if r == nil {
		return
	}
	if fn == nil {
		r.spanObs.Store(nil)
		return
	}
	r.spanObs.Store(&fn)
}

// PoolMetrics aggregates a named worker pool's activity. It implements the
// parallel package's PoolObserver interface structurally (so the two
// packages stay uncoupled). A nil *PoolMetrics is inert but note: wrap it
// before handing it to an interface-typed parameter — a typed nil in a
// non-nil interface still reaches PoolRun, which nil-checks for exactly
// that reason.
type PoolMetrics struct {
	runs        *Counter
	jobs        *Counter
	busyNS      *Counter
	idleNS      *Counter
	depth       *Histogram
	utilization *Histogram
}

// Pool returns (registering on first use) metrics for the named pool; nil
// on a nil registry. Metrics: pool_<name>_runs_total, pool_<name>_jobs_total,
// pool_<name>_busy_ns_total, pool_<name>_idle_ns_total (queue-stall time:
// worker-lifetime the straggler tail wasted), pool_<name>_depth (jobs per
// run) and pool_<name>_utilization_pct.
func (r *Registry) Pool(name string) *PoolMetrics {
	if r == nil {
		return nil
	}
	p := "pool_" + name
	return &PoolMetrics{
		runs:        r.Counter(p + "_runs_total"),
		jobs:        r.Counter(p + "_jobs_total"),
		busyNS:      r.Counter(p + "_busy_ns_total"),
		idleNS:      r.Counter(p + "_idle_ns_total"),
		depth:       r.Histogram(p+"_depth", CountBuckets()),
		utilization: r.Histogram(p+"_utilization_pct", []float64{10, 25, 50, 75, 90, 95, 99, 100}),
	}
}

// PoolRun books one pool execution: workers goroutines drained jobs items
// in wall time, with busy the summed worker lifetimes. Idle time
// (workers×wall − busy) is the queue-stall signal: time workers spent
// parked behind the slowest item.
func (pm *PoolMetrics) PoolRun(workers, jobs int, wall, busy time.Duration) {
	if pm == nil {
		return
	}
	pm.runs.Inc()
	pm.jobs.Add(int64(jobs))
	pm.busyNS.Add(int64(busy))
	capacity := time.Duration(workers) * wall
	if idle := capacity - busy; idle > 0 {
		pm.idleNS.Add(int64(idle))
	}
	pm.depth.Observe(float64(jobs))
	if capacity > 0 {
		pm.utilization.Observe(100 * float64(busy) / float64(capacity))
	}
}

// --- snapshots ---

// HistogramSnapshot is one histogram's frozen state. Bounds and Counts are
// parallel; Counts has one extra trailing +Inf bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket counts
// by linear interpolation inside the containing bucket, the way Prometheus
// histogram_quantile does. The first bucket interpolates from 0; a target
// landing in the +Inf bucket clamps to the last finite bound (the
// histogram cannot resolve beyond it). An empty histogram returns 0.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.Count)
	var cum int64
	for i, n := range h.Counts {
		prev := cum
		cum += n
		if float64(cum) < target {
			continue
		}
		if i >= len(h.Bounds) {
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		hi := h.Bounds[i]
		if n == 0 {
			return hi
		}
		return lo + (hi-lo)*(target-float64(prev))/float64(n)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// GaugeSnapshot is one gauge's frozen state.
type GaugeSnapshot struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// Snapshot is a consistent-enough point-in-time copy of every metric
// (individual values are atomic; the set is not fenced). Maps serialise in
// sorted key order under encoding/json, so two snapshots with equal values
// marshal byte-identically.
type Snapshot struct {
	UptimeMS   int64                        `json:"uptime_ms"`
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]GaugeSnapshot     `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot freezes the registry. A nil registry yields empty (non-nil)
// maps so consumers can index without guards.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]GaugeSnapshot{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	s.UptimeMS = int64(time.Since(r.start) / time.Millisecond)
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = GaugeSnapshot{Value: g.Value(), Max: g.Max()}
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Count:  h.Count(),
			Sum:    h.Sum(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}

// sortedKeys returns m's keys in sorted order (Prometheus output and tests
// need a stable walk).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
