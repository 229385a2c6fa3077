// Package stats provides small statistical helpers used by the experiment
// harness: summaries, percentiles and histograms.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes the distribution of a sample.
type Summary struct {
	N    int
	Min  float64
	Max  float64
	Mean float64
	P50  float64
	P90  float64
	P99  float64
}

// Summarize computes a Summary of xs. It returns a zero Summary for an
// empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)

	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	return Summary{
		N:    len(sorted),
		Min:  sorted[0],
		Max:  sorted[len(sorted)-1],
		Mean: sum / float64(len(sorted)),
		P50:  Percentile(sorted, 0.50),
		P90:  Percentile(sorted, 0.90),
		P99:  Percentile(sorted, 0.99),
	}
}

// Percentile returns the p-th percentile (0 <= p <= 1) of a sorted sample
// using nearest-rank interpolation.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// SummarizeInts is Summarize for integer samples.
func SummarizeInts(xs []int) Summary {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return Summarize(fs)
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.3g mean=%.3g p50=%.3g p90=%.3g p99=%.3g max=%.3g",
		s.N, s.Min, s.Mean, s.P50, s.P90, s.P99, s.Max)
}

// Histogram is a fixed-bucket histogram over [Lo, Hi) with equal-width
// buckets.
//
// Out-of-range convention: a finite observation below Lo or at/above Hi is
// clamped into the first or last bucket (so it still contributes to counts,
// quantiles and the mean) and additionally tallied in Under or Over, which
// therefore measure range pressure rather than extra observations. NaN
// observations cannot be ordered, so they are only tallied in NaN and never
// bucketed. Total() is Count() + NaN.
type Histogram struct {
	Lo, Hi  float64
	Buckets []int
	// Under and Over tally the clamped out-of-range observations (already
	// included in the end buckets).
	Under, Over int
	// NaN tallies NaN observations, which are not bucketed.
	NaN int
	// Sum accumulates the clamped values of all bucketed observations
	// (out-of-range values contribute Lo or Hi, keeping Mean finite even
	// when an infinity is observed).
	Sum float64
}

// NewHistogram creates a histogram with n buckets spanning [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 {
		n = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	return &Histogram{Lo: lo, Hi: hi, Buckets: make([]int, n)}
}

// Observe records one observation under the clamping convention described
// on Histogram.
func (h *Histogram) Observe(x float64) {
	if math.IsNaN(x) {
		h.NaN++
		return
	}
	i := 0
	switch {
	case x < h.Lo:
		h.Under++
		x = h.Lo
	case x >= h.Hi:
		h.Over++
		i = len(h.Buckets) - 1
		x = h.Hi
	default:
		i = int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Buckets)))
		if i >= len(h.Buckets) {
			i = len(h.Buckets) - 1
		}
	}
	h.Buckets[i]++
	h.Sum += x
}

// Count returns the number of bucketed observations (everything except
// NaN).
func (h *Histogram) Count() int {
	t := 0
	for _, b := range h.Buckets {
		t += b
	}
	return t
}

// Total returns the number of observations, including NaN ones.
func (h *Histogram) Total() int {
	return h.Count() + h.NaN
}

// Mean returns the mean of the bucketed (clamped) observations, 0 when
// empty.
func (h *Histogram) Mean() float64 {
	c := h.Count()
	if c == 0 {
		return 0
	}
	return h.Sum / float64(c)
}

// Quantile estimates the p-th quantile (0 <= p <= 1) of the bucketed
// observations, interpolating linearly within the containing bucket. It
// returns 0 for an empty histogram.
func (h *Histogram) Quantile(p float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(n)
	width := (h.Hi - h.Lo) / float64(len(h.Buckets))
	cum := 0.0
	for i, b := range h.Buckets {
		if b == 0 {
			continue
		}
		next := cum + float64(b)
		if rank <= next {
			frac := (rank - cum) / float64(b)
			if frac < 0 {
				frac = 0
			}
			return h.Lo + (float64(i)+frac)*width
		}
		cum = next
	}
	return h.Hi
}

// Merge folds another histogram with the identical bucket layout into h.
// Snapshots taken with Clone on different shards of the same instrument
// merge into a global view this way.
func (h *Histogram) Merge(o *Histogram) error {
	if o == nil {
		return nil
	}
	if h.Lo != o.Lo || h.Hi != o.Hi || len(h.Buckets) != len(o.Buckets) {
		return fmt.Errorf("stats: merging histogram [%g,%g)x%d into [%g,%g)x%d",
			o.Lo, o.Hi, len(o.Buckets), h.Lo, h.Hi, len(h.Buckets))
	}
	for i, b := range o.Buckets {
		h.Buckets[i] += b
	}
	h.Under += o.Under
	h.Over += o.Over
	h.NaN += o.NaN
	h.Sum += o.Sum
	return nil
}

// Clone returns an independent copy of the histogram (a mergeable
// snapshot).
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.Buckets = make([]int, len(h.Buckets))
	copy(c.Buckets, h.Buckets)
	return &c
}

// Summarize derives a Summary from the bucketed observations. Min and Max
// are the 0th and 100th quantile estimates (bucket-edge resolution).
func (h *Histogram) Summarize() Summary {
	if h.Count() == 0 {
		return Summary{}
	}
	return Summary{
		N:    h.Count(),
		Min:  h.Quantile(0),
		Max:  h.Quantile(1),
		Mean: h.Mean(),
		P50:  h.Quantile(0.50),
		P90:  h.Quantile(0.90),
		P99:  h.Quantile(0.99),
	}
}

// Ratio returns a/b, or 0 when b is zero. It keeps experiment tables free
// of NaN noise.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Log2 returns the base-2 logarithm of x (0 for x <= 0).
func Log2(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Log2(x)
}
