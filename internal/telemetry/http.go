package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
)

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as plain samples, histograms
// as cumulative _bucket/_sum/_count families. Metric names walk in sorted
// order so output is stable for a fixed set of values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	s := r.Snapshot()
	for _, name := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		g := s.Gauges[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n%s_max %d\n", name, name, g.Value, name, g.Max); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		var cum int64
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatBound(bound), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
			name, h.Count, name, formatBound(h.Sum), name, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// formatBound renders a float the way Prometheus clients expect: shortest
// exact decimal, no exponent for the magnitudes buckets use.
func formatBound(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// MetricsHandler serves WritePrometheus — mount it on /metrics. A nil
// registry yields a working handler that serves an empty exposition: the
// closure only calls WritePrometheus, which nil-guards
// (TestNilRegistryIsInert serves it).
func (r *Registry) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(rw)
	})
}

// VarsHandler serves the JSON snapshot in the expvar idiom — mount it on
// /debug/vars. A nil registry yields a working handler serving the empty
// snapshot: the closure only calls Snapshot, which nil-guards
// (TestNilRegistryIsInert serves it).
func (r *Registry) VarsHandler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
}
