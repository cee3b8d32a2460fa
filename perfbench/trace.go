package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one repeat share Run; Parent 0 is a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Run    int     `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory until write. A nil *tracer records nothing,
// which is how untraced repeats run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	run   int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextRun starts a new run id for the spans of the next repeat.
func (t *tracer) nextRun() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run++
	t.mu.Unlock()
}

// add records a span whose bounds the caller measured.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Run: t.run, Name: name,
		Start: t.us(start), End: t.us(end),
	})
	return id
}

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0).Microseconds()) }

// timing is an open span. Every duration the benchmark reports is the
// duration end returns, so a traced value and its span are one
// measurement; on a nil tracer the span is timed but not kept.
type timing struct {
	tr    *tracer
	id    int // 0 when not kept; children then get parent 0 too
	start time.Time
}

// begin opens a span under parent, closed by end.
func (t *tracer) begin(name string, parent int) timing {
	now := time.Now()
	return timing{tr: t, id: t.add(name, parent, now, now), start: now}
}

// end closes the span and returns its duration.
func (s timing) end() time.Duration {
	now := time.Now()
	if s.id != 0 {
		s.tr.mu.Lock()
		s.tr.spans[s.id-1].End = s.tr.us(now)
		s.tr.mu.Unlock()
	}
	return now.Sub(s.start)
}

// ms is d in milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// spanTotal is the time under one span name: total duration and self time
// (duration minus the part of its interval that child spans cover).
type spanTotal struct {
	Name    string
	Count   int
	TotalMS float64
	SelfMS  float64
}

// totals folds the recorded spans by name.
func (t *tracer) totals() []spanTotal {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := map[string]*spanTotal{}
	for _, s := range t.spans {
		tot := by[s.Name]
		if tot == nil {
			tot = &spanTotal{Name: s.Name}
			by[s.Name] = tot
		}
		dur := s.End - s.Start
		tot.Count++
		tot.TotalMS += dur / 1e3
		tot.SelfMS += (dur - covered(s, children[s.ID])) / 1e3
	}
	out := make([]spanTotal, 0, len(by))
	for _, v := range by {
		out = append(out, *v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum float64
	cur := p.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, p.End)
		if hi > lo {
			sum += hi - lo
			cur = hi
		}
	}
	return sum
}

// write stores every span as one JSON document.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// stageLog collects the program's own stage spans through the registry's
// span observer: per day, each vertical's observe duration.
type stageLog struct {
	mu   sync.Mutex
	vert map[int][]float64 // day → observe_vertical ms
}

func watchStages(reg *telemetry.Registry) *stageLog {
	l := &stageLog{vert: map[int][]float64{}}
	reg.SetSpanObserver(func(e telemetry.SpanEvent) {
		if e.Stage != "observe_vertical" {
			return
		}
		l.mu.Lock()
		l.vert[e.Day] = append(l.vert[e.Day], float64(e.Duration)/1e6)
		l.mu.Unlock()
	})
	return l
}

// fanOut returns every vertical duration and, per fully observed day, the
// slowest vertical over the mean vertical.
func (l *stageLog) fanOut(verticals int) (all, straggler []float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	days := make([]int, 0, len(l.vert))
	for d := range l.vert {
		days = append(days, d)
	}
	sort.Ints(days)
	for _, d := range days {
		v := l.vert[d]
		all = append(all, v...)
		if len(v) != verticals {
			continue
		}
		var sum, top float64
		for _, x := range v {
			sum += x
			top = max(top, x)
		}
		straggler = append(straggler, ratio(top, sum/float64(len(v))))
	}
	return all, straggler
}

func (st spanTotal) String() string {
	return fmt.Sprintf("span %-20s n=%-5d total_ms=%.3f self_ms=%.3f", st.Name, st.Count, st.TotalMS, st.SelfMS)
}
