package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"slowcc/internal/obs"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

// runCellScenario builds a real supervised scenario and pushes traffic
// through its bottleneck, so a panic after it unwinds a live engine.
func runCellScenario(c *Cell, seed int64) {
	eng, d := c.newScenario(seed, topology.Config{Rate: 1e6})
	f := TCPAlgo(0.5).Make(eng, d, 1)
	eng.At(0, f.Sender.Start)
	eng.RunUntil(2)
}

func TestSupervisePanicBecomesRunError(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	_, rerr := supervise(sw, 7, func(c *Cell) int {
		runCellScenario(c, 1)
		panic("poisoned cell")
	})
	if rerr == nil {
		t.Fatal("panicking cell returned nil RunError")
	}
	if rerr.Index != 7 || rerr.Outcome != "panic" {
		t.Fatalf("RunError = %+v, want Index 7, no deadline", rerr)
	}
	if rerr.Value != "poisoned cell" {
		t.Fatalf("RunError.Value = %v, want the panic value", rerr.Value)
	}
	if !strings.Contains(rerr.Stack, "runCellScenario") &&
		!strings.Contains(rerr.Stack, "supervise_test") {
		t.Fatalf("RunError.Stack does not mention the panicking frame:\n%s", rerr.Stack)
	}
	if !strings.Contains(rerr.Error(), "poisoned cell") {
		t.Fatalf("Error() = %q does not name the panic", rerr.Error())
	}
	// A cell outside any sweep must not pollute the sweep collector.
	if errs := sw.Errors(); len(errs) != 0 {
		t.Fatalf("supervise recorded %d sweep errors, want 0", len(errs))
	}
}

// A cell over its deadline is halted by its own engine's wall budget:
// it comes back degraded with the engine's halt, and its job has ended
// before supervise returns — nothing is left running.
func TestSuperviseDeadlineHalt(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	sw.Budget = &sim.Budget{MaxWall: 20 * time.Millisecond}

	var ended atomic.Bool
	v, rerr := supervise(sw, 3, func(c *Cell) int {
		defer ended.Store(true)
		eng, _ := c.newScenario(1, topology.Config{Rate: 1e6})
		spin(eng)
		eng.RunUntil(1e9)
		return 42
	})
	if !ended.Load() {
		t.Fatal("supervise returned while its cell's job still ran")
	}
	if rerr == nil || v != 0 {
		t.Fatalf("over-deadline cell returned %d, %v; want a degraded zero value", v, rerr)
	}
	if rerr.Outcome != "halt" || rerr.Index != 3 || !strings.HasPrefix(rerr.Halt, "max-wall after ") {
		t.Fatalf("RunError = %+v, want index 3 halted by max-wall", rerr)
	}
	if !strings.Contains(rerr.Error(), "halted by its run budget (halt: max-wall") {
		t.Fatalf("Error() = %q, want the wall halt", rerr.Error())
	}
}

// spin schedules an endless chain of events a microsecond apart, so a
// run of eng ends only when its budget halts it.
func spin(eng *sim.Engine) {
	var tick func()
	tick = func() { eng.After(1e-6, tick) }
	eng.After(0, tick)
}

// A cell's deadline is one wall budget its engines share, counted from
// the cell's start: the first engine spends it, and an engine built
// after the deadline halts at its first event instead of getting a
// budget of its own.
func TestSuperviseDeadlinePairsWithBudget(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	sw.Budget = &sim.Budget{MaxWall: 10 * time.Millisecond}

	_, rerr := supervise(sw, 0, func(c *Cell) int {
		first, _ := c.newScenario(1, topology.Config{Rate: 1e6})
		spin(first)
		first.RunUntil(1e9)
		runCellScenario(c, 2)
		return 1
	})
	if rerr == nil || rerr.Outcome != "halt" {
		t.Fatalf("want a halt RunError, got %v", rerr)
	}
	halts := strings.Split(rerr.Halt, "; ")
	if len(halts) != 2 || !strings.HasPrefix(halts[0], "max-wall after ") ||
		!strings.HasPrefix(halts[1], "max-wall after 0 events") {
		t.Fatalf("Halt = %q, want the first engine's wall halt, then the second's at event 0", rerr.Halt)
	}
}

func TestSupervisedSweepSurvivesPoisonedCell(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)

	const n, poisoned = 5, 2
	out := supervisedMap(sw, n, func(c *Cell) int {
		if c.Index() == poisoned {
			runCellScenario(c, int64(c.Index()+1))
			panic("cell is poisoned")
		}
		return 100 + c.Index()
	})

	if len(out) != n {
		t.Fatalf("sweep returned %d cells, want %d", len(out), n)
	}
	for i, v := range out {
		want := 100 + i
		if i == poisoned {
			want = 0 // degraded cell yields the zero value
		}
		if v != want {
			t.Fatalf("cell %d = %d, want %d", i, v, want)
		}
	}
	errs := sw.Errors()
	if len(errs) != 1 {
		t.Fatalf("sweep recorded %d degraded cells, want exactly 1", len(errs))
	}
	e := errs[0]
	if e.Index != poisoned || e.Outcome != "panic" {
		t.Fatalf("RunError = %+v, want a panic at index %d", e, poisoned)
	}
	if !strings.Contains(e.Stack, "runCellScenario") && !strings.Contains(e.Stack, "supervise_test") {
		t.Fatalf("RunError.Stack does not mention the panicking frame:\n%s", e.Stack)
	}
	if errs := sw.Errors(); len(errs) != 0 {
		t.Fatalf("Errors kept the cells it returned: %v", errs)
	}
}

// TestSupervisedDriverSweepPartialResults runs a real figure driver with
// a run budget so tight every cell halts early: the sweep still yields a
// full-length result slice, and every halted cell is a degraded zero
// value with a RunError naming its halt, in index order.
func TestSupervisedDriverSweepPartialResults(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	sw.Budget = &sim.Budget{MaxEvents: 5000}

	res := sw.Fig6(Fig6Config{
		Backgrounds: []AlgoSpec{TCPAlgo(0.5), TFRCAlgo(TFRCOpts{K: 8})},
		Flows:       2, Rate: 1e6, End: 30, Seed: 1,
	})
	if len(res) != 2 {
		t.Fatalf("Fig6 returned %d results, want 2", len(res))
	}
	errs := sw.Errors()
	if len(errs) != 2 {
		t.Fatalf("budget-halted cells recorded %d errors, want 2: %v", len(errs), errs)
	}
	for i, r := range res {
		if r.Background != "" {
			t.Fatalf("halted cell %d yielded %+v, want its zero value", i, r)
		}
		if e := errs[i]; e.Index != i || e.Outcome != "halt" || !strings.HasPrefix(e.Halt, "max-events after 5000 events") {
			t.Fatalf("RunError %d = %+v, want cell %d's halt", i, e, i)
		}
	}
}

func TestSweepTimelineEmitsCellSpans(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	tl := obs.NewTimeline()
	sw.Timeline = tl

	const n, poisoned = 6, 4
	// Hold each worker's first cell until every worker has one, so no
	// worker can drain the sweep before another starts and every lane,
	// "worker 0" included, is certain to appear.
	workers := min(runtime.GOMAXPROCS(0), n)
	var taken atomic.Int32
	allBusy := make(chan struct{})
	supervisedMap(sw, n, func(c *Cell) int {
		if int(taken.Add(1)) == workers {
			close(allBusy)
		}
		<-allBusy
		if c.Index() == poisoned {
			panic("always fails")
		}
		return c.Index()
	})

	if errs := sw.Errors(); len(errs) != 1 || errs[0].Index != poisoned {
		t.Fatalf("Errors = %v, want cell %d's panic", errs, poisoned)
	}
	var buf strings.Builder
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ValidateTimeline([]byte(buf.String()))
	if err != nil {
		t.Fatalf("sweep timeline is not loadable: %v", err)
	}
	// Every cell gets a queued span and a running span; the poisoned one
	// adds a degraded instant, plus lane metadata.
	if events < 2*n+1 {
		t.Fatalf("timeline has %d events, want at least %d", events, 2*n+1)
	}
	out := buf.String()
	wants := []string{
		`"cat":"queued"`, `"cat":"running"`, `"cat":"degraded"`,
		`"sweep queue"`, `"sweep workers"`,
		`"cell 4 degraded"`, `"outcome":"ok"`, `"outcome":"panic"`,
	}
	for w := 0; w < workers; w++ {
		wants = append(wants, fmt.Sprintf(`"worker %d"`, w))
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %s:\n%s", want, out)
		}
	}
}

// Back-to-back sweeps share one timeline, as slowccsim -exp all's do:
// each queued span starts at its own sweep's start, so no wait of the
// second sweep reaches back into the first.
func TestSweepTimelineQueuedSpansStartAtTheirSweep(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	tl := obs.NewTimeline()
	sw.Timeline = tl
	spans := func(cat string) []obs.TraceEvent {
		var buf bytes.Buffer
		if err := tl.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var doc struct{ TraceEvents []obs.TraceEvent }
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		var out []obs.TraceEvent
		for _, ev := range doc.TraceEvents {
			if ev.Ph == "X" && ev.Cat == cat {
				out = append(out, ev)
			}
		}
		return out
	}

	const n = 4
	cell := func(c *Cell) int { time.Sleep(2 * time.Millisecond); return c.Index() }
	supervisedMap(sw, n, cell)
	firstEnd := 0.0
	for _, sp := range spans("running") {
		firstEnd = max(firstEnd, sp.Ts+sp.Dur)
	}
	supervisedMap(sw, n, cell)
	queued := spans("queued")
	if len(queued) != 2*n {
		t.Fatalf("%d queued spans, want %d", len(queued), 2*n)
	}
	for _, sp := range queued[n:] {
		if sp.Ts < firstEnd {
			t.Fatalf("second sweep's %q starts at %.0f µs, before the first sweep ended at %.0f µs", sp.Name, sp.Ts, firstEnd)
		}
	}
}

func TestSweepTimelineRemovedIsQuiet(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	tl := obs.NewTimeline()
	sw.Timeline = tl
	supervisedMap(sw, 3, func(c *Cell) int { return c.Index() })
	had := tl.Len()
	sw.Timeline = nil
	supervisedMap(sw, 3, func(c *Cell) int { return c.Index() })
	if got := tl.Len(); had == 0 || got != had {
		t.Fatalf("timeline held %d events after its sweep and %d after one without it, want the same non-zero count", had, got)
	}
}
