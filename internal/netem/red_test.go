package netem

import (
	"math"
	"math/rand"
	"testing"
)

// TestREDForcedDropDoesNotMark is the regression test for the
// mark-then-drop accounting bug: with ECN marking enabled, a packet
// arriving to a full physical buffer used to be CE-marked by the
// average-queue logic and then force-dropped by the capacity check,
// inflating Marks (and mutating a packet that never transits). Marks
// must only count packets that are actually kept.
func TestREDForcedDropDoesNotMark(t *testing.T) {
	r := NewRED(1, 2, 4, 0.0008, rand.New(rand.NewSource(1)))
	r.MarkECN = true
	// Fill the physical buffer while the average is still below
	// MinThresh (EWMA weight 0.002 barely moves in four arrivals).
	for i := 0; i < 4; i++ {
		if !r.Enqueue(&Packet{Size: 1000, ECT: true}, 0) {
			t.Fatalf("packet %d rejected while filling the buffer", i)
		}
	}
	// Snap the average onto the instantaneous queue size (4 > MaxThresh
	// = 2) so the marking branch would fire if it were consulted.
	r.Weight = 1
	p := &Packet{Size: 1000, ECT: true}
	if r.Enqueue(p, 0) {
		t.Fatal("packet accepted beyond the physical capacity")
	}
	if p.CE {
		t.Fatal("force-dropped packet was CE-marked")
	}
	if r.Marks != 0 {
		t.Fatalf("Marks = %d counts a packet that never transits, want 0", r.Marks)
	}
	if r.ForcedDrops != 1 || r.EarlyDrops != 0 {
		t.Fatalf("drop split forced=%d early=%d, want forced=1 early=0",
			r.ForcedDrops, r.EarlyDrops)
	}
}

// TestREDDropSplitSumsToRefusals drives a RED queue hard across the
// early-drop and forced-drop regimes and checks that EarlyDrops +
// ForcedDrops equals exactly the number of refused packets — the
// decomposition the invariant layer asserts on every audited link.
func TestREDDropSplitSumsToRefusals(t *testing.T) {
	r := NewRED(2, 6, 10, 0.0008, rand.New(rand.NewSource(7)))
	var refused int64
	now := 0.0
	// Phase 1: burst into a cold average — the physical cap, not RED,
	// refuses the overflow (forced drops).
	for i := 0; i < 30; i++ {
		now += 0.0001
		if !r.Enqueue(&Packet{Size: 1000}, now) {
			refused++
		}
	}
	// Phase 2: drain alongside arrivals with a fast-moving average, so
	// the queue sits below the cap while the average crosses the
	// thresholds — RED's early drops take over.
	r.Weight = 0.5
	for i := 0; i < 2000; i++ {
		now += 0.0004
		if !r.Enqueue(&Packet{Size: 1000}, now) {
			refused++
		}
		r.Dequeue(now)
	}
	if r.EarlyDrops+r.ForcedDrops != refused {
		t.Fatalf("early=%d + forced=%d != refused=%d",
			r.EarlyDrops, r.ForcedDrops, refused)
	}
	if r.EarlyDrops == 0 || r.ForcedDrops == 0 {
		t.Fatalf("scenario must exercise both drop regimes: early=%d forced=%d",
			r.EarlyDrops, r.ForcedDrops)
	}
}

// TestREDIdleDecayBitIdentical pins updateAvg's zero-average shortcut to
// the formula it abbreviates. The queue is driven through idle/busy
// cycles that reach every state the shortcut distinguishes — idle from a
// zero average (the shortcut), idle from a positive one (the decay),
// a decay long enough to underflow the average back to zero, and idle
// again from that zero — while a reference EWMA applies the unabridged
// update to the same samples; the two must agree to the bit throughout.
func TestREDIdleDecayBitIdentical(t *testing.T) {
	const pktTime = 0.0008
	r := NewRED(5, 15, 1000, pktTime, rand.New(rand.NewSource(1)))
	r.Weight = 0.25 // a fast average: positive after one busy sample
	ref, refIdle, refSince, qlen := 0.0, true, 0.0, 0
	now := 0.0
	enqueue := func() {
		if refIdle {
			ref *= idleDecay(1-r.Weight, (now-refSince)/pktTime)
			refIdle = false
		} else {
			ref = (1-r.Weight)*ref + r.Weight*float64(qlen)
		}
		if r.Enqueue(&Packet{Size: 1000}, now) {
			qlen++
		}
		if got := r.Avg(); math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("t=%v: avg %v (%#x), reference %v (%#x)", now, got,
				math.Float64bits(got), ref, math.Float64bits(ref))
		}
	}
	drain := func() {
		for qlen > 0 {
			now += pktTime
			r.Dequeue(now)
			qlen--
		}
		refIdle, refSince = true, now
	}
	var zeroIdles, positiveIdles int
	for cycle, gap := range []float64{0.01, 0.5, 0.002, 1e6, 3, 0.004, 0.0001, 1e9, 7} {
		now += gap
		if r.Avg() == 0 {
			zeroIdles++
		} else {
			positiveIdles++
		}
		// The first arrival of a cycle ends an idle period; the rest of
		// the burst (none on every third cycle, so a zero average
		// survives into the next idle period) are busy samples.
		for i := 0; i <= (cycle%3)*4; i++ {
			enqueue()
			now += pktTime / 4
		}
		drain()
	}
	if zeroIdles < 3 || positiveIdles < 3 {
		t.Fatalf("script left a branch thin: %d idle periods ended from avg == 0, %d from avg > 0",
			zeroIdles, positiveIdles)
	}
}
