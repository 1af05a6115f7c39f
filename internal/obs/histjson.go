package obs

import (
	"encoding/json"
	"fmt"
)

// histJSON is the wire form of a Histogram: the bucket array travels
// sparsely as [index, count] pairs (most of the 320 buckets are empty
// in practice), and Count/Sum/Max travel exactly so a decoded histogram
// answers every query — Quantile, Mean, Merge — identically to the
// original. The store depends on this: a cache-hit cell must replay the
// same /metrics families a cold run produces. Lo is the resolution floor,
// always DefaultHistLo and so never written; a stored non-zero floor
// names a bucket geometry this build cannot read.
type histJSON struct {
	Lo      float64    `json:"lo,omitempty"`
	Buckets [][2]int64 `json:"buckets,omitempty"`
	N       int64      `json:"n,omitempty"`
	Sum     float64    `json:"sum,omitempty"`
	Max     float64    `json:"max,omitempty"`
}

// MarshalJSON encodes the histogram losslessly in sparse form.
func (h Histogram) MarshalJSON() ([]byte, error) {
	w := histJSON{N: h.n, Sum: h.sum, Max: h.max}
	for i, c := range h.counts {
		if c != 0 {
			w.Buckets = append(w.Buckets, [2]int64{int64(i), c})
		}
	}
	return json.Marshal(&w)
}

// UnmarshalJSON decodes the sparse form written by MarshalJSON.
func (h *Histogram) UnmarshalJSON(b []byte) error {
	var w histJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	if w.Lo != 0 {
		return fmt.Errorf("obs: histogram resolution floor %g, want %g", w.Lo, DefaultHistLo)
	}
	*h = Histogram{n: w.N, sum: w.Sum, max: w.Max}
	for _, p := range w.Buckets {
		i := p[0]
		if i < 0 || i >= histBuckets {
			return fmt.Errorf("obs: histogram bucket index %d out of range", i)
		}
		h.counts[i] = p[1]
	}
	return nil
}
