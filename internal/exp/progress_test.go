package exp

import (
	"bytes"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"slowcc/internal/obs"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

// recordingSink is an obs.SweepSink capturing everything it receives.
type recordingSink struct {
	mu     sync.Mutex
	events []obs.SweepEvent
	stats  []obs.CellStats
}

func (s *recordingSink) SweepEvent(ev obs.SweepEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, ev)
}

func (s *recordingSink) CellStats(st obs.CellStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = append(s.stats, st)
}

func (s *recordingSink) cellKinds(cell int) []obs.SweepEventKind {
	s.mu.Lock()
	defer s.mu.Unlock()
	var kinds []obs.SweepEventKind
	for _, ev := range s.events {
		if ev.Cell == cell {
			kinds = append(kinds, ev.Kind)
		}
	}
	return kinds
}

func withSink(t *testing.T) *recordingSink {
	t.Helper()
	sink := &recordingSink{}
	prev := SetSweepProgress(sink)
	t.Cleanup(func() { SetSweepProgress(prev) })
	return sink
}

func kindsEqual(got []obs.SweepEventKind, want ...obs.SweepEventKind) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// A supervised cell with live telemetry attached must deliver a
// CellStats snapshot carrying the real scenario's counters and stream
// digest, plus the queued/running/done event sequence.
func TestSweepProgressCellStatsFromRealScenario(t *testing.T) {
	withDeadline(t, 0)
	sink := withSink(t)
	_, rerr := Supervise(0, func(c *Cell) int {
		runCellScenario(c, 1)
		return 1
	})
	if rerr != nil {
		t.Fatalf("cell failed: %v", rerr)
	}
	if !kindsEqual(sink.cellKinds(0), obs.SweepQueued, obs.SweepRunning, obs.SweepDone) {
		t.Fatalf("event kinds = %v, want queued/running/done", sink.cellKinds(0))
	}
	if len(sink.stats) != 1 {
		t.Fatalf("got %d CellStats, want 1", len(sink.stats))
	}
	st := sink.stats[0]
	if st.Counters["engine.fired"] == 0 {
		t.Fatalf("cell counters missing engine.fired: %v", st.Counters)
	}
	if st.Counters["link.lr.departures"] == 0 {
		t.Fatalf("cell counters missing bottleneck traffic: %v", st.Counters)
	}
	if st.DigestEvents == 0 || st.DigestEvents != st.Events {
		t.Fatalf("digest covered %d of %d events", st.DigestEvents, st.Events)
	}
	if len(st.Halts) != 0 {
		t.Fatalf("unbudgeted run reported halts %q", st.Halts)
	}
	// The digest must be the run's fingerprint: the same scenario on the
	// same seed reproduces it, a different seed does not.
	for seed, wantEqual := range map[int64]bool{1: true, 2: false} {
		sink2 := &recordingSink{}
		prev := SetSweepProgress(sink2)
		_, rerr := Supervise(0, func(c *Cell) int { runCellScenario(c, seed); return 1 })
		SetSweepProgress(prev)
		if rerr != nil {
			t.Fatalf("seed %d rerun failed: %v", seed, rerr)
		}
		if got := sink2.stats[0].Digest == st.Digest; got != wantEqual {
			t.Errorf("seed %d: digest equality = %v, want %v", seed, got, wantEqual)
		}
	}

	// The sink is who asks for the digest; a store beside it changes
	// nothing about what the sink receives, and records the same.
	disk := withStore(t, false)
	SetSweepScope("served-and-stored")
	served := withSink(t)
	supervisedMap(1, func(c *Cell) int { runCellScenario(c, 1); return 1 })
	if len(served.stats) != 1 || served.stats[0].Digest != st.Digest ||
		served.stats[0].DigestEvents != st.Events {
		t.Fatalf("sink + store: stats %+v, want the sink-only digest %016x over all %d events",
			served.stats, st.Digest, st.Events)
	}
	entries := disk.Entries()
	if len(entries) != 1 {
		t.Fatalf("store holds %d cells, want 1", len(entries))
	}
	if cs, err := entries[0].CellStats(); err != nil || cs.Digest != st.Digest || cs.DigestEvents != cs.Events {
		t.Fatalf("served cell stored %+v (%v), want the digest its sink saw", cs, err)
	}
}

// A cell runs once: a panicking cell ends in a degraded terminal event
// with no CellStats, and is not run again.
func TestSweepProgressDegradedOrdering(t *testing.T) {
	withDeadline(t, 0)
	sink := withSink(t)
	var runs [2]atomic.Int32
	out := supervisedMap(2, func(c *Cell) int {
		runs[c.Index()].Add(1)
		if c.Index() == 1 {
			panic("cell 1 dies")
		}
		return c.Index() + 10
	})
	if out[0] != 10 || out[1] != 0 {
		t.Fatalf("sweep values = %v", out)
	}
	if errs := SweepErrors(); len(errs) != 1 || errs[0].Index != 1 {
		t.Fatalf("SweepErrors = %v, want one for cell 1", errs)
	}
	ResetSweepErrors()
	if runs[0].Load() != 1 || runs[1].Load() != 1 {
		t.Fatalf("cells ran %d and %d times, want once each", runs[0].Load(), runs[1].Load())
	}
	if !kindsEqual(sink.cellKinds(0), obs.SweepQueued, obs.SweepRunning, obs.SweepDone) {
		t.Fatalf("cell 0 kinds = %v, want queued/running/done", sink.cellKinds(0))
	}
	if !kindsEqual(sink.cellKinds(1), obs.SweepQueued, obs.SweepRunning, obs.SweepDegraded) {
		t.Fatalf("cell 1 kinds = %v, want queued/running/degraded", sink.cellKinds(1))
	}
	if len(sink.stats) != 1 {
		t.Fatalf("CellStats = %+v, want exactly cell 0's", sink.stats)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for _, ev := range sink.events {
		if ev.Kind == obs.SweepDegraded && ev.Outcome != "panic" {
			t.Fatalf("degraded outcome %q, want panic", ev.Outcome)
		}
	}
}

// spinPastBudget runs a scenario whose engine never drains, so only the
// run budget stops it.
func spinPastBudget(c *Cell) {
	eng, _ := c.newScenario(1, topology.Config{Rate: 1e6})
	var fn func(any)
	fn = func(any) { eng.AfterFunc(1e-3, fn, nil) }
	eng.AfterFunc(1e-3, fn, nil)
	eng.RunUntil(1e6)
}

// A cell whose engine trips the global run budget must surface the halt
// reason in its CellStats and done event.
func TestSweepProgressReportsBudgetHalt(t *testing.T) {
	withDeadline(t, 0)
	sink := withSink(t)
	prev := SetRunBudget(&sim.Budget{MaxEvents: 50})
	defer SetRunBudget(prev)
	_, rerr := Supervise(0, func(c *Cell) int { spinPastBudget(c); return 1 })
	if rerr != nil {
		t.Fatalf("cell failed: %v", rerr)
	}
	if len(sink.stats) != 1 || len(sink.stats[0].Halts) != 1 {
		t.Fatalf("CellStats halt not reported: %+v", sink.stats)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	last := sink.events[len(sink.events)-1]
	if last.Kind != obs.SweepDone || last.Halt != sink.stats[0].Halts[0] {
		t.Fatalf("done event missing halt reason: %+v", last)
	}
}

// A halt reaches the done event and a degraded cell's report whatever
// renders them: with only a logger installed — no sink, no store — the
// cell's engines are still read for their halt reasons.
func TestBudgetHaltReportedWithoutSinkOrStore(t *testing.T) {
	withDeadline(t, 0)
	var buf bytes.Buffer
	prevLog := SetSweepLogger(slog.New(slog.NewTextHandler(&buf, nil)))
	defer SetSweepLogger(prevLog)
	prev := SetRunBudget(&sim.Budget{MaxEvents: 50})
	defer SetRunBudget(prev)
	if _, rerr := Supervise(0, func(c *Cell) int { spinPastBudget(c); return 1 }); rerr != nil {
		t.Fatalf("cell failed: %v", rerr)
	}
	if out := buf.String(); !strings.Contains(out, "sweep cell done") || !strings.Contains(out, `halt="max-events after 50 events`) {
		t.Fatalf("done record carries no halt:\n%s", out)
	}
	_, rerr := Supervise(1, func(c *Cell) int { spinPastBudget(c); panic("after the halt") })
	if rerr == nil || !strings.HasPrefix(rerr.Halt, "max-events after 50 events") {
		t.Fatalf("degraded cell's halt not reported: %+v", rerr)
	}
}

// The sweep logger must receive one structured record per transition
// with the cell/worker/outcome attributes, and a Warn for degraded cells.
func TestSweepLoggerRecords(t *testing.T) {
	withDeadline(t, 0)
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	prev := SetSweepLogger(logger.With("run", "deadbeef"))
	defer SetSweepLogger(prev)
	_, _ = Supervise(3, func(c *Cell) int { return 1 })
	_, rerr := Supervise(4, func(c *Cell) int { panic("dies") })
	if rerr == nil {
		t.Fatal("expected degraded cell")
	}
	out := buf.String()
	for _, want := range []string{
		"sweep cell done", "cell=3", "outcome=ok", "run=deadbeef",
		"cell=4", "outcome=panic", "worker=0",
		"level=WARN", "sweep cell degraded",
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
	if bytes.Contains(buf.Bytes(), []byte("attempt=")) {
		t.Errorf("log output still carries an attempt attribute:\n%s", out)
	}
}
