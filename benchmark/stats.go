package main

import (
	"math"
	"math/bits"
	"sort"
)

// minTail is the number of samples a reported percentile needs beyond
// it: p90 needs at least 100 samples, p99 at least 1000.
const minTail = 10

// Sample is a set of measurements of one quantity (latencies of one
// phase, rates of its slices).
type Sample struct {
	v      []float64
	sorted bool
}

// Add appends one measurement.
func (s *Sample) Add(x float64) {
	s.v = append(s.v, x)
	s.sorted = false
}

// N returns the number of measurements.
func (s *Sample) N() int { return len(s.v) }

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.v)
		s.sorted = true
	}
}

// Percentile returns the nearest-rank q-quantile (0 < q ≤ 1): the
// smallest measurement with at least q·N measurements at or below it.
// It returns NaN for an empty sample.
func (s *Sample) Percentile(q float64) float64 {
	if len(s.v) == 0 {
		return math.NaN()
	}
	s.sort()
	k := int(math.Ceil(q*float64(len(s.v)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s.v) {
		k = len(s.v) - 1
	}
	return s.v[k]
}

// Reportable reports whether a q-quantile over n measurements has at
// least minTail measurements beyond it.
func Reportable(n int, q float64) bool {
	return float64(n)*(1-q) >= minTail-1e-9
}

// Median returns the median (the mean of the middle two for an even
// count), NaN for an empty sample.
func (s *Sample) Median() float64 { return median(s.v) }

func median(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// Phase collects one phase's timings in slices of Size consecutive
// timings. Its percentiles are medians over slices of each slice's own
// percentile. The host can take a vCPU away for milliseconds at a time;
// slices a few milliseconds long keep such a stall inside a minority of
// slices, where the median ignores it, while slices much longer than
// the stalls all contain some. The pooled sample keeps every timing for
// the tail diagnostics.
type Phase struct {
	Size     int    // timings per slice
	All      Sample // every timing
	cur      Sample
	p50, p90 Sample // per-slice percentiles
}

// Add records one timing, closing the current slice when it is full. A
// slice contributes a p90 only when it has at least minTail timings
// beyond it.
func (p *Phase) Add(x float64) {
	p.cur.Add(x)
	p.All.Add(x)
	if p.cur.N() < p.Size {
		return
	}
	p.p50.Add(p.cur.Percentile(0.5))
	if Reportable(p.cur.N(), 0.9) {
		p.p90.Add(p.cur.Percentile(0.9))
	}
	p.cur = Sample{v: p.cur.v[:0]}
}

// P50 returns the median over slices of the slice medians.
func (p *Phase) P50() float64 { return p.p50.Median() }

// P90 returns the median over slices of the slice p90s, NaN when the
// slices are too small to report one.
func (p *Phase) P90() float64 { return p.p90.Median() }

// Slices returns the number of closed slices.
func (p *Phase) Slices() int { return p.p50.N() }

// Quartiles returns the three cut points dividing v into four groups,
// computed as Python's statistics.quantiles(v, n=4) does with its
// default "exclusive" method. It needs at least two values.
func Quartiles(v []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		x := math.NaN()
		if ld == 1 {
			x = d[0]
		}
		return x, x, x
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// Spread returns the distance between the first and third quartiles of
// v as a share of its median: the run-to-run noise of one metric.
func Spread(v []float64) float64 {
	q1, _, q3 := Quartiles(v)
	return (q3 - q1) / median(v)
}

// Hist is a log-linear histogram of non-negative integer durations
// (nanoseconds) with histSub buckets per power of two, so a quantile
// read from it is within 1/histSub of the true value. It holds any
// number of observations in fixed memory; the traced run uses it for
// per-call span durations, which are too many to keep one by one.
type Hist struct {
	n       uint64
	buckets [64 * histSub]uint64
}

const (
	histSubBits = 4
	histSub     = 1 << histSubBits
)

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1 - histSubBits
	return (e+1)*histSub + int(v>>uint(e)) - histSub
}

// histLow returns the smallest value that maps to bucket i.
func histLow(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	e := i/histSub - 1
	return uint64(histSub+i%histSub) << uint(e)
}

// Observe records one value; negative values count as zero.
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[histIndex(uint64(v))]++
	h.n++
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 { return h.n }

// Quantile returns the nearest-rank q-quantile as the midpoint of its
// bucket, or 0 for an empty histogram.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.n)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			lo, hi := histLow(i), histLow(i+1)
			return float64(lo) + float64(hi-lo-1)/2
		}
	}
	return float64(histLow(len(h.buckets) - 1))
}

// Merge adds o's observations to h.
func (h *Hist) Merge(o *Hist) {
	h.n += o.n
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
}
