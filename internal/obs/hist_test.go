package obs

import (
	"math"
	"testing"
)

func TestHistogramQuantilesOnUniformSpread(t *testing.T) {
	var h Histogram
	// 1ms..100ms in 1ms steps: exact quantiles are known, and the
	// log-linear buckets must land within one sub-bucket (12.5%).
	for i := 1; i <= 100; i++ {
		h.Record(float64(i) * 1e-3)
	}
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	if got := h.Max(); got != 0.1 {
		t.Fatalf("max %v", got)
	}
	if got, want := h.Mean(), 0.0505; math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean %v, want %v", got, want)
	}
	checks := []struct{ q, exact float64 }{{0.50, 0.050}, {0.90, 0.090}, {0.99, 0.099}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if got < c.exact || got > c.exact*1.13 {
			t.Fatalf("p%v = %v, want within +12.5%% above %v", c.q*100, got, c.exact)
		}
	}
}

func TestHistogramBelowFirstBucketClamps(t *testing.T) {
	var h Histogram
	h.Record(1e-12) // far below Lo=1µs
	h.Record(0)
	h.Record(-5) // negative: clamps, still counted exactly
	if h.Count() != 3 {
		t.Fatalf("count %d", h.Count())
	}
	// All landed in the first bucket; the quantile upper bound is capped
	// by the exact max, so tiny values don't inflate to bucket edges.
	if got := h.Quantile(0.99); got != h.Max() {
		t.Fatalf("p99 %v, want exact max %v", got, h.Max())
	}
	if h.Max() != 1e-12 {
		t.Fatalf("max %v", h.Max())
	}
	if h.Sum() != 1e-12-5 {
		t.Fatalf("sum %v", h.Sum())
	}
}

func TestHistogramAboveLastBucketClamps(t *testing.T) {
	var h Histogram
	huge := 1e12 // beyond Lo * 2^40
	h.Record(huge)
	h.Record(1e-3)
	if h.Count() != 2 {
		t.Fatalf("count %d", h.Count())
	}
	// The huge value clamps into the last bucket but Max stays exact,
	// and the quantile cap keeps the reported value at the exact max.
	if got := h.Quantile(1.0); got != huge {
		t.Fatalf("p100 %v, want %v", got, huge)
	}
	if got := h.Quantile(0.25); got > 1.2e-3 {
		t.Fatalf("p25 %v, want near 1e-3", got)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	var h Histogram
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	if h.Mean() != 0 || h.Max() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram stats must be zero")
	}
	s := h.Summary()
	if s != (HistSummary{}) {
		t.Fatalf("empty summary %+v", s)
	}
}

func TestHistogramRecordDoesNotAllocate(t *testing.T) {
	var h Histogram
	v := 0.001
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		v *= 1.0001
	}); allocs != 0 {
		t.Fatalf("Record allocates %v per op, want 0", allocs)
	}
}

func TestHistogramBucketMonotonicity(t *testing.T) {
	// bucketIndex must be monotone in v and consistent with bucketUpper:
	// every value must land in a bucket whose upper edge is >= it.
	var h Histogram
	prev := -1
	for v := 1e-7; v < 1e7; v *= 1.01 {
		i := h.bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex(%v) = %d < previous %d", v, i, prev)
		}
		prev = i
		if i != histBuckets-1 && v > h.bucketUpper(i) {
			t.Fatalf("value %v above its bucket %d upper edge %v", v, i, h.bucketUpper(i))
		}
	}
}
