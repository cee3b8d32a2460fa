// Command perfbench is the repository's end-to-end benchmark. Each
// invocation runs one named workload from workloads.json through the
// public API, checks the outputs, prints every metric by name with its
// unit, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, measured with
// telemetry off. With -trace 1 untraced and traced repeats alternate
// (A/B, B/A, ...) and the metrics are the per-layer set, taken from spans
// the benchmark records around its calls into each layer plus the
// program's telemetry registry; the A/B pairs give telemetry.overhead_pct.
//
// Run it from the repository root with perfbench/run.sh, which builds this
// package first; --all runs every workload in turn:
//
//	bash perfbench/run.sh --workload study --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --all --seed 1 --seconds 30 --trace 1
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	searchseizure "repro"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

//go:embed workloads.json
var workloadsJSON []byte

// workload is one entry of workloads.json.
type workload struct {
	Name       string                  `json:"name"`
	Spec       searchseizure.StudySpec `json:"spec"`
	GOMAXPROCS int                     `json:"gomaxprocs"`
	Workers    int                     `json:"workers"`
	Setups     int                     `json:"setups"`
	MinRepeats int                     `json:"min_repeats"`
	Budget     int                     `json:"budget"`
	Clients    int                     `json:"clients"`
	Reads      int                     `json:"reads"`
	ReadMix    []string                `json:"read_mix"`
	WebDomains int                     `json:"web_domains"`
}

// deadline bounds one invocation: no repeat starts that would, judging by
// the previous one, end past it. Stopping for it before the minimum number
// of repeats is a failed check.
const deadline = 150 * time.Second

// bench is one invocation's state.
type bench struct {
	w       workload
	seed    int64
	out     string // scratch directory for checkpoints and traces
	checks  *tally
	tr      *tracer // nil unless tracing
	cur     *tracer // tr during a traced repeat, nil otherwise
	runner  func(traced bool) *sample
	firstFP uint64 // fingerprint of the first repeat (study) or the reference run (recover)
	dayFPs  []string

	plan       *faults.Plan   // service: the study's fault plan, for web read predictions
	webClasses map[string]int // service: web reads by reply class
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload name from workloads.json")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "measurement window in seconds; a workload's minimum repeats always run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from traced repeats")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "scratch directory for checkpoints and traces")
	flag.Parse()

	var file struct {
		Workloads []workload `json:"workloads"`
	}
	if err := json.Unmarshal(workloadsJSON, &file); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: workloads.json:", err)
		return 2
	}
	var w *workload
	var names []string
	for i := range file.Workloads {
		names = append(names, file.Workloads[i].Name)
		if file.Workloads[i].Name == *name {
			w = &file.Workloads[i]
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds >= 1 and -trace 0|1\n", strings.Join(names, ", "))
		return 2
	}

	procs := w.GOMAXPROCS
	if procs <= 0 {
		procs = runtime.NumCPU()
	}
	runtime.GOMAXPROCS(procs)
	// Spec seeds must be positive; map any integer onto one.
	w.Spec.Seed = int64(uint64(*seed)&(1<<62-1)) + 1

	dir, err := os.MkdirTemp(mkdir(*out), w.Name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := &bench{w: *w, seed: *seed, out: dir, checks: &tally{}, webClasses: map[string]int{}}
	switch w.Name {
	case "study":
		b.runner = b.studyRepeat
	case "service":
		b.prepareService()
		b.runner = b.serviceRepeat
	case "recover":
		b.prepareRecover()
		b.runner = b.recoverRepeat
	default:
		fmt.Fprintf(os.Stderr, "perfbench: workload %s has no runner\n", w.Name)
		return 2
	}

	start := time.Now()
	window := time.Duration(*seconds) * time.Second
	var plain, traced []*sample
	if *trace == 0 {
		plain = b.repeat(start, window, max(b.w.MinRepeats, 1), 1, func(int) bool { return false })
	} else {
		b.tr = newTracer()
		// Pairs alternate which side runs first; at least two pairs.
		all := b.repeat(start, window, 4, 2, func(i int) bool { return (i/2+i)%2 == 1 })
		for _, s := range all {
			if s.traced {
				traced = append(traced, s)
			} else {
				plain = append(plain, s)
			}
		}
	}

	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s workload=%s seed=%d spec_seed=%d trace=%d repeats=%d wall_s=%.1f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), w.Name, *seed, w.Spec.Seed, *trace,
		len(plain)+len(traced), time.Since(start).Seconds())
	e2e := endToEnd(plain)
	var result []metric
	if *trace == 0 {
		result = e2e.declared()
	} else {
		result = b.perLayer(traced, plain)
		for _, st := range b.tr.totals() {
			fmt.Println(st)
		}
		path := filepath.Join(mkdir(*out), fmt.Sprintf("trace-%s-seed%d.json", w.Name, *seed))
		if err := b.tr.write(path); err != nil {
			b.checks.check(false, "write trace: "+err.Error())
		} else {
			fmt.Println("trace written to", path)
		}
	}
	e2e.print()
	b.printWebClasses()
	for _, n := range b.checks.notes {
		fmt.Println("check failed:", n)
	}
	fmt.Printf("error_rate %.6f ratio (%d failed of %d attempted; %d injected faults absorbed)\n",
		ratio(float64(b.checks.failed), float64(b.checks.attempted)),
		b.checks.failed, b.checks.attempted, b.checks.injected)

	line := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{Correct: b.checks.failed == 0, Attempted: b.checks.attempted, Failed: b.checks.failed,
		Metrics: map[string]json.RawMessage{}}
	for _, m := range result {
		raw, err := json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{finite(m.value), m.unit})
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", m.name, err)
			return 1
		}
		line.Metrics[m.name] = raw
	}
	raw, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(raw))
	return 0
}

// repeat runs the workload in groups of step repeats, at least min of
// them, and starts no group that would, judging by the last repeat, end
// past the window; traced(i) says whether repeat i records spans.
func (b *bench) repeat(start time.Time, window time.Duration, min, step int, traced func(int) bool) []*sample {
	var out []*sample
	var last time.Duration
	for i := 0; ; i++ {
		ends := time.Since(start) + time.Duration(step)*last
		if i > 0 && i%step == 0 && (i >= min && ends > window || ends > deadline) {
			b.checks.check(i >= min, fmt.Sprintf("deadline reached after %d of at least %d repeats", i, min))
			return out
		}
		t := time.Now()
		runtime.GC()
		on := traced(i)
		b.cur = nil
		if on {
			b.cur = b.tr
			b.tr.nextRun()
		}
		s := b.runner(on)
		s.traced = on
		out = append(out, s)
		last = time.Since(t)
	}
}

// finite maps the NaN or infinity a failed repeat can leave in a ratio to
// 0, which JSON can carry; correct is false in that case anyway.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

func mkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	return dir
}

// tally counts operations (runs, HTTP requests, correctness checks) and
// the ones that failed.
type tally struct {
	attempted, failed, injected int
	notes                       []string
}

func (t *tally) check(ok bool, what string) bool {
	t.attempted++
	if !ok {
		t.failed++
		if len(t.notes) < 20 {
			t.notes = append(t.notes, what)
		}
	}
	return ok
}

// registry returns a live registry for traced repeats, nil otherwise.
func registry(traced bool) *telemetry.Registry {
	if traced {
		return telemetry.New()
	}
	return nil
}
