package obs

import (
	"math"
	"math/rand"
	"testing"
)

func TestCanonicalMetricName(t *testing.T) {
	cases := map[string]string{
		"engine.scheduled":                  "engine.scheduled", // existing names pass through
		"journey.access-1-lr-in.drop_burst": "journey.access-1-lr-in.drop_burst",
		"link.lr.bytes":                     "link.lr.bytes",
		"ns:sub.metric":                     "ns:sub.metric",
		"bad name/with weird*runes":         "bad_name_with_weird_runes",
		"":                                  "unnamed",
	}
	for in, want := range cases {
		if got := CanonicalMetricName(in); got != want {
			t.Errorf("CanonicalMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

// The bucket bounds CumBuckets exposes must round-trip: a quantile
// recomputed from (Le, cumulative count) pairs has to agree with the
// Histogram's own Quantile for any distribution that stays inside the
// bucket range.
func TestCumBucketsQuantileRoundTrip(t *testing.T) {
	h := &Histogram{}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		h.Record(math.Exp(rng.NormFloat64()) * 1e-3) // lognormal around 1ms
	}
	buckets := h.CumBuckets()
	if len(buckets) == 0 {
		t.Fatal("no buckets for a populated histogram")
	}
	last := buckets[len(buckets)-1]
	if last.Count != h.Count() {
		t.Fatalf("final cumulative count %d != Count() %d", last.Count, h.Count())
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i].Le <= buckets[i-1].Le || buckets[i].Count < buckets[i-1].Count {
			t.Fatalf("bucket %d not monotonic: %+v after %+v", i, buckets[i], buckets[i-1])
		}
	}
	fromBuckets := func(q float64) float64 {
		rank := int64(math.Ceil(q * float64(h.Count())))
		if rank < 1 {
			rank = 1
		}
		for _, b := range buckets {
			if b.Count >= rank {
				if b.Le > h.Max() {
					return h.Max()
				}
				return b.Le
			}
		}
		return h.Max()
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		if got, want := fromBuckets(q), h.Quantile(q); got != want {
			t.Errorf("q=%v: bucket-reconstructed %v != Quantile %v", q, got, want)
		}
	}
	if (&Histogram{}).CumBuckets() != nil {
		t.Fatal("empty histogram should expose no buckets")
	}
}
