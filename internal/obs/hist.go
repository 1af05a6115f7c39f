package obs

import "math"

// Histogram bucket geometry: histMajor powers of two above Lo, each
// split into histSub linear sub-buckets — the classic HDR layout. With
// the floor DefaultHistLo of 1µs that spans 1µs .. ~12.7 days at a worst-case
// relative error of 1/histSub (12.5%), which is far tighter than the
// factor-of-two a plain log histogram gives and plenty for latency
// quantiles.
const (
	histMajor   = 40
	histSub     = 8
	histBuckets = histMajor * histSub
)

// Histogram is a log-linear histogram with a fixed bucket array:
// Record is allocation-free and O(1), and quantiles are read by walking
// the cumulative counts. The zero value is ready to use.
//
// Values below the first bucket clamp into it; values beyond the last
// bucket clamp into the last. Count/Sum/Max are exact regardless of
// clamping, so Mean and Max never suffer bucket error.
type Histogram struct {
	counts [histBuckets]int64
	n      int64
	sum    float64
	max    float64
}

// DefaultHistLo is every histogram's resolution floor, the upper edge of
// its first sub-bucket: one microsecond, fine enough for sub-millisecond
// sim latencies.
const DefaultHistLo = 1e-6

// bucketIndex maps a value to its bucket. Exported behavior is defined
// entirely by bucketUpper: a value lands in the first bucket whose
// upper edge is >= the value (after clamping at both ends).
func (h *Histogram) bucketIndex(v float64) int {
	const lo = DefaultHistLo
	if !(v > lo) { // also catches NaN and negatives
		return 0
	}
	// v/lo >= 1, so Frexp returns m in [0.5,1) with exp >= 1:
	// major = exp-1 selects the power of two, and (2m-1) in [0,1)
	// positions the value linearly inside it.
	m, exp := math.Frexp(v / lo)
	major := exp - 1
	if major >= histMajor {
		return histBuckets - 1
	}
	sub := int((2*m - 1) * histSub)
	if sub >= histSub { // guard rounding at the top edge
		sub = histSub - 1
	}
	return major*histSub + sub
}

// bucketUpper returns the inclusive upper edge of bucket i.
func (h *Histogram) bucketUpper(i int) float64 {
	major := i / histSub
	sub := i % histSub
	return DefaultHistLo * math.Ldexp(1+float64(sub+1)/histSub, major)
}

// Record adds one observation. It never allocates.
func (h *Histogram) Record(v float64) {
	h.counts[h.bucketIndex(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.n }

// Sum returns the exact sum of recorded observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Max returns the exact maximum recorded observation (0 when empty).
func (h *Histogram) Max() float64 { return h.max }

// Mean returns the exact mean of recorded observations (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Quantile returns an upper bound on the q-quantile (q in [0,1]): the
// upper edge of the bucket holding the ceil(q*n)-th smallest
// observation, clamped to the exact Max. An empty histogram returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i]
		if cum >= rank {
			if i == histBuckets-1 {
				// The last bucket holds everything clamped from above;
				// its only honest upper bound is the exact max.
				return h.max
			}
			u := h.bucketUpper(i)
			if u > h.max {
				u = h.max // bucket edge can't exceed the exact max
			}
			return u
		}
	}
	return h.max
}

// HistBucket is one cumulative bucket of an exported histogram: Count
// observations were <= the inclusive upper edge Le.
type HistBucket struct {
	Le    float64 `json:"le"`
	Count int64   `json:"count"`
}

// CumBuckets returns the histogram's cumulative bucket counts with
// their upper edges — the bounds a HistSummary never carries
// — in ascending Le order, one entry per occupied bucket (cumulative
// counts are unchanged by omitting empty buckets). Two caveats the
// exposition layer must honor: values beyond the top bucket clamp into
// it, so the final entry's Count equals Count() even though Max() may
// exceed its Le — render the +Inf bucket from Count(); and values below
// the resolution floor clamp into the first bucket. An empty histogram
// returns nil.
func (h *Histogram) CumBuckets() []HistBucket {
	if h.n == 0 {
		return nil
	}
	var out []HistBucket
	var cum int64
	for i := 0; i < histBuckets; i++ {
		if h.counts[i] == 0 {
			continue
		}
		cum += h.counts[i]
		out = append(out, HistBucket{Le: h.bucketUpper(i), Count: cum})
	}
	return out
}

// HistSummary is the fixed set of statistics a histogram exports into
// manifests and reports.
type HistSummary struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Summary snapshots the histogram's headline statistics.
func (h *Histogram) Summary() HistSummary {
	return HistSummary{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}
