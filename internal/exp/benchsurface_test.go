package exp

import (
	"testing"

	"slowcc/internal/obs"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

// The bench surface drives the package-default Sweep: each setter sets
// its field and hands back the previous value, a wrapped driver runs its
// sweep there, and SweepErrors keeps what ResetSweepErrors clears.
// Serial: it is the one test that touches the default.
func TestBenchSurfaceDrivesTheDefaultSweep(t *testing.T) {
	st, sink, tl := newStore(t), &recordingSink{}, obs.NewTimeline()
	defer SetSweepStore(SetSweepStore(st, true), false)
	defer SetSweepProgress(SetSweepProgress(sink))
	defer SetSweepTimeline(SetSweepTimeline(tl))
	if SetSweepStore(nil, true) != st || defaultSweep.Replay {
		t.Fatal("SetSweepStore(nil, true) left replay on, or lost the previous store")
	}
	SetSweepStore(st, true)
	if defaultSweep.Store != st || !defaultSweep.Replay || defaultSweep.Progress != sink || defaultSweep.Timeline != tl {
		t.Fatalf("the setters did not reach the default Sweep: %+v", defaultSweep)
	}

	Matrix(tinyMatrix(1))
	if st.Len() != 3 || len(sink.cellKinds(2)) == 0 || tl.Len() == 0 {
		t.Fatalf("Matrix stored %d cells, sink saw cell 2 as %v, timeline %d events; want 3, its lifecycle, some",
			st.Len(), sink.cellKinds(2), tl.Len())
	}

	if _, rerr := Supervise(0, func(*Cell) int { panic("bench surface bomb") }); rerr == nil {
		t.Fatal("Supervise returned no RunError for a panicking cell")
	}
	boom := AlgoSpec{Name: "BOOM", Make: func(*sim.Engine, topology.Fabric, int) Flow { panic("bench surface bomb") }}
	cfg := tinyMatrix(1)
	cfg.Algos = []AlgoSpec{boom}
	Matrix(cfg)
	if n, again := len(SweepErrors()), len(SweepErrors()); n != 3 || again != 3 {
		t.Fatalf("SweepErrors gave %d then %d degraded cells, want the sweep's three both times (Supervise records none)", n, again)
	}
	ResetSweepErrors()
	if errs := SweepErrors(); len(errs) != 0 {
		t.Fatalf("ResetSweepErrors left %v", errs)
	}
}
