// Determinism guarantee of the journey layer: attaching a journey
// recorder to the seed-1 macro run — recording every per-hop span —
// must not change the event stream at all, because link taps observe
// without scheduling anything. This is a stronger pin than the wired-but-off layers hold
// (pinned_stream_test.go): fully enabled recording costs zero events.
package slowcc_test

import (
	"math"
	"testing"

	"slowcc"
	"slowcc/internal/obs/journey"
)

func TestJourneyRecordingDoesNotPerturbEventStream(t *testing.T) {
	rec := journey.New()
	// Before the flows wire: access links attach as each path is built.
	r := runMacro(layer{after: func(d *slowcc.Dumbbell) { d.ObserveJourneys(rec) }})
	rec.Finalize()
	holdPinned(t, r, runMacro(layer{}), false)

	// The recorder observed the whole run: its per-hop components must
	// tile the measured end-to-end delay of every delivered packet.
	n, e2e, queue, tx, prop := rec.Attribution()
	if n == 0 {
		t.Fatal("journey recorder saw no end-to-end packets")
	}
	if sum := queue + tx + prop; math.Abs(sum-e2e) > 1e-9*float64(n) {
		t.Fatalf("attribution does not tile: q+tx+prop %v vs e2e %v over %d packets", sum, e2e, n)
	}
}
