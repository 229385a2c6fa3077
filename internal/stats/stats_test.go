package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v, want zeros", s)
	}
}

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 {
		t.Fatalf("N = %d, want 4", s.N)
	}
	if s.Min != 1 || s.Max != 4 {
		t.Fatalf("min/max = %v/%v, want 1/4", s.Min, s.Max)
	}
	if s.Mean != 2.5 {
		t.Fatalf("mean = %v, want 2.5", s.Mean)
	}
	if s.P50 != 2.5 {
		t.Fatalf("p50 = %v, want 2.5", s.P50)
	}
}

func TestSummarizeIntsMatchesFloats(t *testing.T) {
	a := SummarizeInts([]int{5, 7, 9})
	b := Summarize([]float64{5, 7, 9})
	if a != b {
		t.Fatalf("int summary %+v != float summary %+v", a, b)
	}
}

func TestPercentileBounds(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p    float64
		want float64
	}{
		{-0.5, 1},
		{0, 1},
		{0.5, 3},
		{1, 5},
		{1.5, 5},
	}
	for _, tt := range tests {
		if got := Percentile(sorted, tt.p); got != tt.want {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	sorted := []float64{0, 10}
	if got := Percentile(sorted, 0.25); got != 2.5 {
		t.Fatalf("Percentile(0.25) = %v, want 2.5", got)
	}
}

func TestSummaryOrderingProperty(t *testing.T) {
	f := func(xs []float64) bool {
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = 0
			}
			// Keep magnitudes small enough that the sum cannot overflow;
			// IEEE saturation is not what this helper is specified for.
			xs[i] = math.Mod(xs[i], 1e6)
		}
		s := Summarize(xs)
		if len(xs) == 0 {
			return s.N == 0
		}
		return s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.P99 &&
			s.P99 <= s.Max && s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0, 1.9, 2, 9.99, 10, 42} {
		h.Observe(x)
	}
	if h.Under != 1 || h.Over != 2 {
		t.Fatalf("under/over = %d/%d, want 1/2", h.Under, h.Over)
	}
	if h.Buckets[0] != 3 { // -1 clamped, 0 and 1.9
		t.Fatalf("bucket0 = %d, want 3", h.Buckets[0])
	}
	if h.Buckets[1] != 1 { // 2
		t.Fatalf("bucket1 = %d, want 1", h.Buckets[1])
	}
	if h.Buckets[4] != 3 { // 9.99, plus 10 and 42 clamped
		t.Fatalf("bucket4 = %d, want 3", h.Buckets[4])
	}
	if h.Total() != 7 || h.Count() != 7 {
		t.Fatalf("total/count = %d/%d, want 7/7", h.Total(), h.Count())
	}
	// Sum uses clamped values: 0 + 0 + 1.9 + 2 + 9.99 + 10 + 10.
	if math.Abs(h.Sum-33.89) > 1e-9 {
		t.Fatalf("sum = %v, want 33.89", h.Sum)
	}
}

// TestHistogramEdgeCases pins the documented convention for the inputs the
// old implementation mishandled: NaN (previously an out-of-bounds panic
// risk) and exactly-Hi / +Inf (previously dropped from the buckets).
func TestHistogramEdgeCases(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.Observe(math.NaN())
	if h.NaN != 1 || h.Count() != 0 || h.Total() != 1 {
		t.Fatalf("after NaN: NaN=%d count=%d total=%d, want 1/0/1", h.NaN, h.Count(), h.Total())
	}
	h.Observe(10) // exactly Hi: clamped into the last bucket, tallied in Over
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(-1))
	if h.Buckets[4] != 2 || h.Buckets[0] != 1 {
		t.Fatalf("buckets = %v, want infs and Hi in the end buckets", h.Buckets)
	}
	if h.Under != 1 || h.Over != 2 {
		t.Fatalf("under/over = %d/%d, want 1/2", h.Under, h.Over)
	}
	if math.IsNaN(h.Mean()) || math.IsInf(h.Mean(), 0) {
		t.Fatalf("mean = %v, want finite under clamping", h.Mean())
	}
	if q := h.Quantile(0.5); q < 0 || q > 10 {
		t.Fatalf("quantile(0.5) = %v outside [Lo, Hi]", q)
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h := NewHistogram(5, 5, 0)
	h.Observe(5)
	if h.Total() != 1 {
		t.Fatalf("total = %d, want 1", h.Total())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(0, 100, 100) // unit buckets
	for i := 0; i < 100; i++ {
		h.Observe(float64(i) + 0.5)
	}
	for _, p := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := h.Quantile(p)
		want := p * 100
		if math.Abs(got-want) > 1.5 {
			t.Errorf("quantile(%v) = %v, want ~%v", p, got, want)
		}
	}
	if h.Quantile(0) != 0 || h.Quantile(1) != 100 {
		t.Fatalf("extreme quantiles = %v/%v, want 0/100", h.Quantile(0), h.Quantile(1))
	}
	if (&Histogram{Lo: 0, Hi: 1, Buckets: make([]int, 4)}).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(0, 10, 5)
	b := NewHistogram(0, 10, 5)
	for i := 0; i < 50; i++ {
		a.Observe(float64(i % 10))
		b.Observe(float64((i + 5) % 10))
	}
	b.Observe(math.NaN())
	b.Observe(-3)
	want := a.Count() + b.Count()
	if err := a.Merge(b.Clone()); err != nil {
		t.Fatal(err)
	}
	if a.Count() != want {
		t.Fatalf("merged count = %d, want %d", a.Count(), want)
	}
	if a.NaN != 1 || a.Under != 1 {
		t.Fatalf("merged NaN/Under = %d/%d, want 1/1", a.NaN, a.Under)
	}
	if err := a.Merge(NewHistogram(0, 20, 5)); err == nil {
		t.Fatal("merge across layouts accepted")
	}
	if err := a.Merge(nil); err != nil {
		t.Fatal("nil merge should be a no-op")
	}
}

func TestHistogramCloneIndependent(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.Observe(1)
	c := h.Clone()
	h.Observe(2)
	if c.Count() != 1 || h.Count() != 2 {
		t.Fatalf("clone count = %d (orig %d), want 1 (2)", c.Count(), h.Count())
	}
}

func TestHistogramSummarize(t *testing.T) {
	h := NewHistogram(0, 64, 64)
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i % 32))
	}
	s := h.Summarize()
	if s.N != 1000 {
		t.Fatalf("N = %d, want 1000", s.N)
	}
	if s.Min > s.P50 || s.P50 > s.P90 || s.P90 > s.P99 || s.P99 > s.Max {
		t.Fatalf("summary not ordered: %+v", s)
	}
	if math.Abs(s.Mean-15.5) > 0.1 {
		t.Fatalf("mean = %v, want ~15.5", s.Mean)
	}
	if (&Histogram{Lo: 0, Hi: 1, Buckets: make([]int, 2)}).Summarize() != (Summary{}) {
		t.Fatal("empty histogram should summarize to zeros")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 {
		t.Fatal("ratio(6,3) != 2")
	}
	if Ratio(1, 0) != 0 {
		t.Fatal("ratio by zero should be 0")
	}
}

func TestLog2(t *testing.T) {
	if Log2(8) != 3 {
		t.Fatal("log2(8) != 3")
	}
	if Log2(0) != 0 || Log2(-3) != 0 {
		t.Fatal("log2 of non-positive should be 0")
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	str := s.String()
	if str == "" || !strings.Contains(str, "n=3") {
		t.Fatalf("summary string %q", str)
	}
}
