package telemetry

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilRegistryIsInert: the nil registry is the no-op sink. Every
// exported method of every pointer handle type is called on a nil
// receiver with zero-value arguments: none may panic, call a func
// argument, or return a live handle, a non-zero count or an error.
// Returned handlers are served once and returned spans ended. The
// package's source is parsed so that a new handle type with exported
// methods fails here until it joins the table.
func TestNilRegistryIsInert(t *testing.T) {
	nils := []any{(*Registry)(nil), (*Counter)(nil), (*Gauge)(nil),
		(*Histogram)(nil), (*Stage)(nil), (*PoolMetrics)(nil)}
	covered := make(map[string]bool)
	for _, recv := range nils {
		rv := reflect.ValueOf(recv)
		covered[rv.Type().Elem().Name()] = true
		for i := 0; i < rv.NumMethod(); i++ {
			name := rv.Type().Elem().Name() + "." + rv.Type().Method(i).Name
			callNil(t, name, rv.Method(i))
		}
	}

	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || !fd.Name.IsExported() {
				continue
			}
			star, ok := fd.Recv.List[0].Type.(*ast.StarExpr)
			if !ok {
				continue
			}
			if id, ok := star.X.(*ast.Ident); ok && !covered[id.Name] {
				t.Errorf("%s: *%s has exported method %s but no nil case in TestNilRegistryIsInert",
					fset.Position(fd.Pos()), id.Name, fd.Name.Name)
			}
		}
	}
}

// callNil calls one nil-receiver method value and checks what it returns.
func callNil(t *testing.T, name string, m reflect.Value) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Errorf("%s on a nil receiver panicked: %v", name, p)
		}
	}()
	mt := m.Type()
	args := make([]reflect.Value, mt.NumIn())
	for i := range args {
		pt := mt.In(i)
		if pt.Kind() != reflect.Func {
			args[i] = reflect.Zero(pt)
			continue
		}
		args[i] = reflect.MakeFunc(pt, func([]reflect.Value) []reflect.Value {
			t.Errorf("%s on a nil receiver called its func argument", name)
			out := make([]reflect.Value, pt.NumOut())
			for j := range out {
				out[j] = reflect.Zero(pt.Out(j))
			}
			return out
		})
	}
	for _, out := range m.Call(args) {
		switch v := out.Interface().(type) {
		case http.Handler:
			rec := httptest.NewRecorder()
			v.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
			if rec.Code != http.StatusOK {
				t.Errorf("%s on a nil receiver: handler served %d", name, rec.Code)
			}
		case Span:
			v.End()
		case Snapshot:
			if v.Counters == nil || v.Gauges == nil || v.Histograms == nil {
				t.Errorf("%s on a nil receiver has nil maps", name)
			}
		default:
			if !out.IsZero() {
				t.Errorf("%s on a nil receiver returned %v, want the zero value", name, v)
			}
		}
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := New()
	c := r.Counter("fetches_total")
	if again := r.Counter("fetches_total"); again != c {
		t.Fatal("counter not deduplicated by name")
	}
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Fatalf("counter = %d", c.Value())
	}

	g := r.Gauge("depth")
	g.Add(7)
	g.Add(-2)
	if g.Value() != 5 || g.Max() != 7 {
		t.Fatalf("gauge = %d max %d", g.Value(), g.Max())
	}

	h := r.Histogram("lat_ms", []float64{1, 10})
	for _, v := range []float64{0.5, 0.9, 5, 11, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("hist count = %d", h.Count())
	}
	if h.Sum() != 117.4 {
		t.Fatalf("hist sum = %v", h.Sum())
	}
	s := r.Snapshot()
	hs := s.Histograms["lat_ms"]
	if hs.Counts[0] != 2 || hs.Counts[1] != 1 || hs.Counts[2] != 2 {
		t.Fatalf("bucket counts = %v", hs.Counts)
	}
}

// TestConcurrentUpdates hammers the handles from many goroutines; run under
// -race this is the lock-cheapness contract.
func TestConcurrentUpdates(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", CountBuckets())
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 40))
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d", c.Value())
	}
	if h.Count() != workers*per {
		t.Fatalf("hist count = %d", h.Count())
	}
}

func TestSpansFeedHistogramAndObserver(t *testing.T) {
	r := New()
	var mu sync.Mutex
	var events []SpanEvent
	r.SetSpanObserver(func(ev SpanEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	st := r.Stage("observe")
	sp := st.Start(12, "uggs")
	sp.End()
	st.Start(13, "").End()
	if got := r.Histogram("stage_observe_ms", DurationBuckets()).Count(); got != 2 {
		t.Fatalf("stage histogram count = %d", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 || events[0].Stage != "observe" || events[0].Day != 12 || events[0].Vertical != "uggs" {
		t.Fatalf("events = %+v", events)
	}
	r.SetSpanObserver(nil)
	st.Start(14, "").End() // must not panic with observer removed
}

func TestPoolMetrics(t *testing.T) {
	r := New()
	pm := r.Pool("crawl")
	pm.PoolRun(4, 16, 10*time.Millisecond, 20*time.Millisecond)
	s := r.Snapshot()
	if s.Counters["pool_crawl_runs_total"] != 1 || s.Counters["pool_crawl_jobs_total"] != 16 {
		t.Fatalf("pool counters = %v", s.Counters)
	}
	// capacity 40ms, busy 20ms -> 20ms idle, 50% utilisation.
	if s.Counters["pool_crawl_idle_ns_total"] != int64(20*time.Millisecond) {
		t.Fatalf("idle = %d", s.Counters["pool_crawl_idle_ns_total"])
	}
	if got := s.Histograms["pool_crawl_utilization_pct"].Sum; got != 50 {
		t.Fatalf("utilization sum = %v", got)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := New()
	r.Counter("crawler_fetch_attempts_total").Add(42)
	r.Gauge("queue_depth").Add(3)
	h := r.Histogram("lat_ms", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(20)

	rec := httptest.NewRecorder()
	r.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE crawler_fetch_attempts_total counter",
		"crawler_fetch_attempts_total 42",
		"# TYPE queue_depth gauge",
		"queue_depth 3",
		"# TYPE lat_ms histogram",
		`lat_ms_bucket{le="1"} 1`,
		`lat_ms_bucket{le="10"} 1`,
		`lat_ms_bucket{le="+Inf"} 2`,
		"lat_ms_count 2",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
}

func TestVarsHandlerJSON(t *testing.T) {
	r := New()
	r.Counter("a_total").Add(7)
	rec := httptest.NewRecorder()
	r.VarsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("vars output not JSON: %v", err)
	}
	if snap.Counters["a_total"] != 7 {
		t.Fatalf("vars counters = %v", snap.Counters)
	}
}

// TestSnapshotMarshalDeterministic: equal metric values must marshal to
// byte-identical JSON (map keys sort), which is what lets BENCH_*.json
// diffs stay meaningful.
func TestSnapshotMarshalDeterministic(t *testing.T) {
	build := func() *Registry {
		r := New()
		for _, n := range []string{"z_total", "a_total", "m_total"} {
			r.Counter(n).Add(3)
		}
		r.Histogram("h_ms", []float64{1, 2}).Observe(1.5)
		return r
	}
	a, _ := json.Marshal(stripUptime(build().Snapshot()))
	b, _ := json.Marshal(stripUptime(build().Snapshot()))
	if string(a) != string(b) {
		t.Fatalf("snapshots differ:\n%s\n%s", a, b)
	}
}

func stripUptime(s Snapshot) Snapshot {
	s.UptimeMS = 0
	return s
}

// BenchmarkNoopCounter pins the disabled-telemetry hot-path cost: a nil
// handle must compile to a nil-check and return.
func BenchmarkNoopCounter(b *testing.B) {
	var r *Registry
	c := r.Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkNoopSpan: a nil stage's Start/End pair must not read the clock.
func BenchmarkNoopSpan(b *testing.B) {
	var r *Registry
	st := r.Stage("observe")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.Start(i, "").End()
	}
}

// BenchmarkLiveCounter is the enabled contrast: one atomic add.
func BenchmarkLiveCounter(b *testing.B) {
	c := New().Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkLiveSpan is the enabled span cost: two clock reads plus one
// histogram observe.
func BenchmarkLiveSpan(b *testing.B) {
	st := New().Stage("observe")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.Start(i, "").End()
	}
}
