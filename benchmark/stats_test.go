package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	var s Sample
	for i := 10; i >= 1; i-- {
		s.Add(float64(i))
	}
	cases := []struct{ q, want float64 }{
		{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10},
	}
	for _, c := range cases {
		if got := s.Percentile(c.q); got != c.want {
			t.Errorf("p%v = %v, want %v", c.q, got, c.want)
		}
	}
	if s.N() != 10 {
		t.Errorf("N = %d", s.N())
	}
	var empty Sample
	if !math.IsNaN(empty.Percentile(0.5)) {
		t.Error("empty sample percentile is not NaN")
	}
}

func TestReportableNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{19, 0.5, false}, {20, 0.5, true},
		{99, 0.9, false}, {100, 0.9, true},
		{999, 0.99, false}, {1000, 0.99, true},
	}
	for _, c := range cases {
		if got := Reportable(c.n, c.q); got != c.want {
			t.Errorf("Reportable(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestSliceMedian(t *testing.T) {
	var s Sample
	for _, x := range []float64{5, 1, 3} {
		s.Add(x)
	}
	if got := s.Median(); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	s.Add(100)
	if got := s.Median(); got != 4 {
		t.Errorf("even median = %v", got)
	}
}

// The expected cut points are what Python's statistics.quantiles(v,
// n=4) returns for the same input.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{50, 40, 30, 20, 10}, 15, 30, 45},
		{[]float64{3.5, 1.25, 9, 4, 7.5, 2, 8}, 2, 4, 8},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("Spread = %v, want 1", got)
	}
}

func TestHistQuantileWithinBucket(t *testing.T) {
	var h Hist
	for v := int64(1); v <= 100000; v++ {
		h.Observe(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 100000
		got := h.Quantile(q)
		if math.Abs(got-want)/want > 1.0/histSub {
			t.Errorf("q%v = %v, want within %.0f%% of %v", q, got, 100.0/histSub, want)
		}
	}
	if h.Count() != 100000 {
		t.Errorf("count %d", h.Count())
	}
	var small Hist
	small.Observe(7)
	small.Observe(-3)
	if small.Quantile(1) != 7 || small.Quantile(0.5) != 0 {
		t.Errorf("exact small buckets: q1=%v q.5=%v", small.Quantile(1), small.Quantile(0.5))
	}
	var m Hist
	m.Merge(&h)
	m.Merge(&small)
	if m.Count() != h.Count()+2 {
		t.Errorf("merged count %d", m.Count())
	}
	var empty Hist
	if empty.Quantile(0.5) != 0 {
		t.Error("empty hist quantile is not 0")
	}
}

func TestHistIndexMonotone(t *testing.T) {
	prev := -1
	for v := uint64(0); v < 1<<20; v += 1 + v/64 {
		i := histIndex(v)
		if i < prev {
			t.Fatalf("index not monotone at %d", v)
		}
		if lo := histLow(i); lo > v || histLow(i+1) <= v {
			t.Fatalf("value %d outside its bucket [%d,%d)", v, lo, histLow(i+1))
		}
		prev = i
	}
}

func TestPhaseMediansOverSlices(t *testing.T) {
	p := Phase{Size: 100}
	// Three slices of 100 timings: two quiet (1..100), one disturbed
	// (1000..1099), then a partial slice that is left out of the
	// per-slice figures. The disturbed slice must not move the result.
	for sl := 0; sl < 3; sl++ {
		base := 0.0
		if sl == 1 {
			base = 999
		}
		for i := 1; i <= 100; i++ {
			p.Add(base + float64(i))
		}
	}
	p.Add(5000)
	if p.Slices() != 3 || p.All.N() != 301 {
		t.Fatalf("slices %d, pooled %d", p.Slices(), p.All.N())
	}
	if p.P50() != 50 || p.P90() != 90 {
		t.Errorf("P50 %v P90 %v, want 50 90", p.P50(), p.P90())
	}
	small := Phase{Size: 99}
	for i := 0; i < 99; i++ {
		small.Add(1)
	}
	if !math.IsNaN(small.P90()) || small.P50() != 1 {
		t.Errorf("99-timing slices: P50 %v P90 %v, want 1 NaN", small.P50(), small.P90())
	}
}
