package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSeriesAddAt(t *testing.T) {
	s := NewSeries(5)
	s.Add(2, 3)
	s.Add(2, 1)
	s.Add(-1, 99) // out of range: ignored
	s.Add(5, 99)  // out of range: ignored
	if s.At(2) != 4 {
		t.Fatalf("At(2) = %v, want 4", s.At(2))
	}
	if s.At(-1) != 0 || s.At(5) != 0 {
		t.Fatal("out-of-range At must return 0")
	}
	if s.Sum() != 4 {
		t.Fatalf("Sum = %v, want 4", s.Sum())
	}
}

func TestMinMaxMean(t *testing.T) {
	s := Series{3, -1, 4, 0}
	if s.Min() != -1 || s.Max() != 4 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	if s.Mean() != 1.5 {
		t.Fatalf("mean = %v", s.Mean())
	}
	var empty Series
	if empty.Min() != 0 || empty.Max() != 0 || empty.Mean() != 0 {
		t.Fatal("empty series stats must be 0")
	}
}

func TestCumulative(t *testing.T) {
	s := Series{1, 2, 3}
	c := s.Cumulative()
	want := Series{1, 3, 6}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("cumulative = %v", c)
		}
	}
}

func TestDivideBy(t *testing.T) {
	s := Series{2, 4, 6}
	d := Series{2, 0, 3}
	q := s.DivideBy(d)
	if q[0] != 1 || q[1] != 0 || q[2] != 2 {
		t.Fatalf("divide = %v", q)
	}
}

func TestMovingAverageConstant(t *testing.T) {
	s := Series{5, 5, 5, 5, 5}
	m := s.MovingAverage(3)
	for i, v := range m {
		if v != 5 {
			t.Fatalf("moving average of constant changed at %d: %v", i, v)
		}
	}
}

func TestMovingAverageSmooths(t *testing.T) {
	s := Series{0, 0, 10, 0, 0}
	m := s.MovingAverage(3)
	if m[2] >= 10 || m[2] <= 0 {
		t.Fatalf("m[2] = %v", m[2])
	}
	if m[1] <= 0 || m[3] <= 0 {
		t.Fatal("spike must bleed into neighbors")
	}
}

func TestPeakRangeConcentrated(t *testing.T) {
	// 100 days, all mass in days 40..49.
	s := NewSeries(100)
	for d := 40; d < 50; d++ {
		s[d] = 10
	}
	start, end, days := s.PeakRange(0.6)
	if days > 7 {
		t.Fatalf("peak range %d days, want <= 7 (60%% of 10 concentrated days)", days)
	}
	if start < 40 || end > 49 {
		t.Fatalf("peak range [%d,%d] outside mass", start, end)
	}
}

func TestPeakRangeUniform(t *testing.T) {
	s := NewSeries(100)
	for d := range s {
		s[d] = 1
	}
	_, _, days := s.PeakRange(0.6)
	if days != 60 {
		t.Fatalf("uniform peak range = %d days, want 60", days)
	}
}

func TestPeakRangeEmpty(t *testing.T) {
	s := NewSeries(10)
	if _, _, days := s.PeakRange(0.6); days != 0 {
		t.Fatalf("all-zero series peak range = %d, want 0", days)
	}
}

func TestPeakRangeProperty(t *testing.T) {
	// The chosen window must actually contain >= frac of the total.
	check := func(vals []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		s := make(Series, len(vals))
		var total float64
		for i, v := range vals {
			s[i] = float64(v)
			total += float64(v)
		}
		start, end, days := s.PeakRange(0.6)
		if total == 0 {
			return days == 0
		}
		var sum float64
		for i := start; i <= end; i++ {
			sum += s[i]
		}
		return sum >= 0.6*total-1e-9 && days == end-start+1
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpark(t *testing.T) {
	s := Series{0, 1, 2, 3, 4, 5, 6, 7}
	sl := Spark(s, 8)
	if sl.Min != 0 || sl.Max != 7 {
		t.Fatalf("spark min/max = %v/%v", sl.Min, sl.Max)
	}
	runes := []rune(sl.Glyphs)
	if len(runes) != 8 {
		t.Fatalf("glyph count = %d", len(runes))
	}
	if runes[0] != '▁' || runes[7] != '█' {
		t.Fatalf("glyphs = %q", sl.Glyphs)
	}
}

func TestSparkEmptyAndFlat(t *testing.T) {
	if sl := Spark(nil, 10); sl.Glyphs != "" {
		t.Fatal("empty series should render no glyphs")
	}
	flat := Series{2, 2, 2}
	sl := Spark(flat, 3)
	for _, r := range sl.Glyphs {
		if r != '▁' {
			t.Fatalf("flat series rendered %q", sl.Glyphs)
		}
	}
}

func TestStackedLayers(t *testing.T) {
	st := NewStacked(3)
	st.Layer("a").Add(0, 5)
	st.Layer("b").Add(1, 1)
	st.Layer("a").Add(2, 5) // same layer again
	if len(st.Labels) != 2 {
		t.Fatalf("labels = %v", st.Labels)
	}
	if st.Layers["a"].Sum() != 10 {
		t.Fatalf("layer a sum = %v", st.Layers["a"].Sum())
	}
}

func TestStackedTopLayers(t *testing.T) {
	st := NewStacked(2)
	st.Layer("big").Add(0, 100)
	st.Layer("mid").Add(0, 10)
	st.Layer("s1").Add(0, 1)
	st.Layer("s2").Add(0, 2)
	top := st.TopLayers(2, "misc")
	if len(top.Labels) != 3 {
		t.Fatalf("labels = %v", top.Labels)
	}
	if top.Layers["misc"].Sum() != 3 {
		t.Fatalf("misc sum = %v", top.Layers["misc"].Sum())
	}
	if top.Layers["big"].Sum() != 100 || top.Layers["mid"].Sum() != 10 {
		t.Fatal("top layers must be preserved")
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	if q := Quantile(v, 0.5); q != 3 {
		t.Fatalf("median = %v", q)
	}
	if q := Quantile(v, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(v, 1); q != 5 {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile(v, 0.25); q != 2 {
		t.Fatalf("q25 = %v", q)
	}
	if q := Quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
}

func TestMeanStddev(t *testing.T) {
	mean, sd := MeanStddev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mean != 5 {
		t.Fatalf("mean = %v", mean)
	}
	if math.Abs(sd-2) > 1e-12 {
		t.Fatalf("stddev = %v", sd)
	}
	if m, s := MeanStddev(nil); m != 0 || s != 0 {
		t.Fatal("empty MeanStddev must be 0,0")
	}
}

func TestScale(t *testing.T) {
	s := Series{1, 2}.Scale(2.5)
	if s[0] != 2.5 || s[1] != 5 {
		t.Fatalf("scale = %v", s)
	}
}
