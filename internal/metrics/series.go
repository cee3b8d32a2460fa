// Package metrics provides the time-series and summary-statistics
// machinery the analyses are built on: daily series, stacked-area
// aggregation, sparkline summaries, peak-range computation and simple
// histograms. All series are indexed by simulation day.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Series is a daily time series of float64 values indexed by day number.
type Series []float64

// NewSeries returns a zero-filled series with n days.
func NewSeries(n int) Series { return make(Series, n) }

// Add adds v to the value at day d, ignoring out-of-range days so callers
// can record events that spill past the observation window.
func (s Series) Add(d int, v float64) {
	if d >= 0 && d < len(s) {
		s[d] += v
	}
}

// At returns the value at day d, or 0 outside the range.
func (s Series) At(d int) float64 {
	if d < 0 || d >= len(s) {
		return 0
	}
	return s[d]
}

// Min returns the minimum value, or 0 for an empty series.
func (s Series) Min() float64 {
	if len(s) == 0 {
		return 0
	}
	m := s[0]
	for _, v := range s[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum value, or 0 for an empty series.
func (s Series) Max() float64 {
	if len(s) == 0 {
		return 0
	}
	m := s[0]
	for _, v := range s[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Sum returns the sum of all values.
func (s Series) Sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// Mean returns the arithmetic mean, or 0 for an empty series.
func (s Series) Mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s))
}

// Scale returns a new series with every value multiplied by k.
func (s Series) Scale(k float64) Series {
	out := make(Series, len(s))
	for i, v := range s {
		out[i] = v * k
	}
	return out
}

// DivideBy returns s[i]/d[i] elementwise (0 where d[i]==0). The result has
// the length of s.
func (s Series) DivideBy(d Series) Series {
	out := make(Series, len(s))
	for i, v := range s {
		if dv := d.At(i); dv != 0 {
			out[i] = v / dv
		}
	}
	return out
}

// Cumulative returns the running sum of s.
func (s Series) Cumulative() Series {
	out := make(Series, len(s))
	var c float64
	for i, v := range s {
		c += v
		out[i] = c
	}
	return out
}

// MovingAverage returns the centered moving average of s with the given
// window width (clamped at the series boundaries).
func (s Series) MovingAverage(width int) Series {
	if width < 1 {
		width = 1
	}
	out := make(Series, len(s))
	half := width / 2
	for i := range s {
		lo, hi := i-half, i+half
		if lo < 0 {
			lo = 0
		}
		if hi >= len(s) {
			hi = len(s) - 1
		}
		var sum float64
		for j := lo; j <= hi; j++ {
			sum += s[j]
		}
		out[i] = sum / float64(hi-lo+1)
	}
	return out
}

// PeakRange returns the shortest contiguous day span [start, end] that
// contains at least frac of the series total, along with the span length in
// days. This is the paper's "peak range" metric with frac = 0.6. For an
// all-zero series it returns (0, 0, 0).
func (s Series) PeakRange(frac float64) (start, end, days int) {
	total := s.Sum()
	if total <= 0 || len(s) == 0 {
		return 0, 0, 0
	}
	target := total * frac
	bestLen := len(s) + 1
	var sum float64
	lo := 0
	for hi := 0; hi < len(s); hi++ {
		sum += s[hi]
		for sum-s[lo] >= target && lo < hi {
			sum -= s[lo]
			lo++
		}
		if sum >= target && hi-lo+1 < bestLen {
			bestLen = hi - lo + 1
			start, end = lo, hi
		}
	}
	if bestLen > len(s) {
		return 0, len(s) - 1, len(s)
	}
	return start, end, bestLen
}

// Sparkline summarises a series as the paper's Figure 3 sparklines do:
// minimum, maximum, and a compact unicode rendering of the shape.
type Sparkline struct {
	Min, Max float64
	Glyphs   string
}

var sparkGlyphs = []rune("▁▂▃▄▅▆▇█")

// Spark renders a sparkline with at most width glyphs by averaging the
// series into width buckets.
func Spark(s Series, width int) Sparkline {
	sl := Sparkline{Min: s.Min(), Max: s.Max()}
	if len(s) == 0 || width <= 0 {
		return sl
	}
	if width > len(s) {
		width = len(s)
	}
	var b strings.Builder
	span := sl.Max - sl.Min
	for i := 0; i < width; i++ {
		lo := i * len(s) / width
		hi := (i + 1) * len(s) / width
		if hi <= lo {
			hi = lo + 1
		}
		var sum float64
		for j := lo; j < hi; j++ {
			sum += s[j]
		}
		v := sum / float64(hi-lo)
		idx := 0
		if span > 0 {
			idx = int((v - sl.Min) / span * float64(len(sparkGlyphs)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(sparkGlyphs) {
				idx = len(sparkGlyphs) - 1
			}
		}
		b.WriteRune(sparkGlyphs[idx])
	}
	sl.Glyphs = b.String()
	return sl
}

// String renders the sparkline in the paper's "min <shape> max" style.
func (sl Sparkline) String() string {
	return fmt.Sprintf("%6.2f %s %6.2f", sl.Min, sl.Glyphs, sl.Max)
}

// Stacked is a set of named series sharing a day axis, used for the
// stacked-area attribution plots of Figure 2.
type Stacked struct {
	Days   int
	Labels []string
	Layers map[string]Series
}

// NewStacked returns an empty stacked set over n days.
func NewStacked(n int) *Stacked {
	return &Stacked{Days: n, Layers: make(map[string]Series)}
}

// Layer returns the series for label, creating it on first use and
// preserving insertion order for rendering.
func (st *Stacked) Layer(label string) Series {
	if s, ok := st.Layers[label]; ok {
		return s
	}
	s := NewSeries(st.Days)
	st.Layers[label] = s
	st.Labels = append(st.Labels, label)
	return s
}

// TopLayers returns the n labels with the largest series totals, with all
// remaining labels collapsed under collapse (if any remain). This mirrors
// the paper's use of a "misc" bucket to reduce clutter.
func (st *Stacked) TopLayers(n int, collapse string) *Stacked {
	type lt struct {
		label string
		total float64
	}
	all := make([]lt, 0, len(st.Labels))
	for _, l := range st.Labels {
		all = append(all, lt{l, st.Layers[l].Sum()})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].total != all[j].total {
			return all[i].total > all[j].total
		}
		return all[i].label < all[j].label
	})
	out := NewStacked(st.Days)
	for i, e := range all {
		if i < n {
			copy(out.Layer(e.label), st.Layers[e.label])
			continue
		}
		misc := out.Layer(collapse)
		for d, v := range st.Layers[e.label] {
			misc[d] += v
		}
	}
	return out
}

// Quantile returns the q-quantile (0 <= q <= 1) of values using linear
// interpolation; it returns 0 for an empty slice.
func Quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	if q <= 0 {
		return v[0]
	}
	if q >= 1 {
		return v[len(v)-1]
	}
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return v[lo]
	}
	frac := pos - float64(lo)
	return v[lo]*(1-frac) + v[hi]*frac
}

// MeanStddev returns the mean and population standard deviation of values.
func MeanStddev(values []float64) (mean, stddev float64) {
	if len(values) == 0 {
		return 0, 0
	}
	for _, v := range values {
		mean += v
	}
	mean /= float64(len(values))
	var ss float64
	for _, v := range values {
		d := v - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(values)))
}
