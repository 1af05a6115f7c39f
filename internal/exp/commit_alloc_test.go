package exp

import (
	"fmt"
	"testing"

	"slowcc/internal/obs"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

// Committing a finished matrix cell encodes its head, result and
// telemetry into one frame and appends it. What it allocates is that
// frame, the head and the result the codec reads through reflection,
// the result decoded back to check it (the value and its four strings),
// the entry the store keeps and its share of the store's map: 12.
// Under -race, sync.Pool drops a quarter of the scratch buffers it is
// given.
func TestAllocsCommitMatrixCell(t *testing.T) {
	sw, st := storeSweep(t)
	stats := obs.CellStats{Counters: map[string]int64{}, Events: 123456}
	topology.New(sim.New(1), topology.Config{Seed: 1}).Counters(stats.Counters)
	cell := MatrixCell{Topology: TopoDumbbell, Condition: CondStatic, A: "TCP(1/2)", B: "TFRC(6)",
		AMbps: 4.2, BMbps: 3.9, Ratio: 1.08, Jain: 0.99, SmoothA: 0.3, SmoothB: 0.1, Utilization: 0.97}
	const runs = 50
	keys := make([]string, runs+1)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i)
	}
	i := 0
	avg := testing.AllocsPerRun(runs, func() {
		commitCell(sw, keys[i], i, cell, stats, nil)
		i++
	})
	if st.Len() != runs+1 {
		t.Fatalf("store holds %d cells, want %d", st.Len(), runs+1)
	}
	ceiling := 12.0
	if raceDetector() {
		ceiling = 20
	}
	if avg > ceiling {
		t.Fatalf("committing a matrix cell allocates %v times, want at most %v", avg, ceiling)
	}
}
