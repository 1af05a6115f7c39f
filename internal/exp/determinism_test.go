package exp

import (
	"reflect"
	"testing"
)

// The packet pool and timer free list are pure memory-reuse mechanisms:
// for a fixed seed they must not change a single bit of any metric.
// These tests run bench-scale versions of the Figure 3 and Figure 7
// scenarios with pooling on and off and require deeply equal results —
// including every float64 in the loss traces and per-flow throughputs.
// A divergence here means a stale field leaked through the pool or an
// event was scheduled with a different (time, seq) order.

func TestDeterminismFig3PooledVsUnpooled(t *testing.T) {
	t.Parallel()
	run := func(disable bool) StabilizationResult {
		return runStabilization(noCell, StabilizationConfig{
			OffAt: 30, OnAt: 40, End: 60,
			Seed:        7,
			DisablePool: disable,
		}, TCPAlgo(0.5))
	}
	pooled := run(false)
	unpooled := run(true)
	if !reflect.DeepEqual(pooled, unpooled) {
		t.Fatalf("Fig3 metrics diverge between pooled and unpooled runs:\npooled:   %+v\nunpooled: %+v", pooled, unpooled)
	}
}

func TestDeterminismFairnessPooledVsUnpooled(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	run := func(disable bool) []FairnessPoint {
		return sw.Fairness(FairnessConfig{
			A: TCPAlgo(0.5), B: TFRCAlgo(TFRCOpts{}),
			Periods: []float64{2},
			Warmup:  10, Measure: 20,
			Seed:        3,
			DisablePool: disable,
		})
	}
	pooled := run(false)
	unpooled := run(true)
	if !reflect.DeepEqual(pooled, unpooled) {
		t.Fatalf("Fairness metrics diverge between pooled and unpooled runs:\npooled:   %+v\nunpooled: %+v", pooled, unpooled)
	}
}

// Same-seed repeatability with pooling on: two pooled runs must agree
// with each other too (guards against pool state bleeding across runs
// through any accidentally shared global).
func TestDeterminismRepeatRun(t *testing.T) {
	t.Parallel()
	run := func() StabilizationResult {
		return runStabilization(noCell, StabilizationConfig{
			OffAt: 20, OnAt: 25, End: 35,
			Seed: 11,
		}, TFRCAlgo(TFRCOpts{}))
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed pooled runs diverge:\nfirst:  %+v\nsecond: %+v", a, b)
	}
}
