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

// withDeadline installs a sweep deadline (0: none) for the duration of
// a test and restores the previous one (plus a clean error collector)
// afterwards.
func withDeadline(t *testing.T, d time.Duration) {
	t.Helper()
	prev := SetSweepDeadline(d)
	ResetSweepErrors()
	t.Cleanup(func() {
		SetSweepDeadline(prev)
		ResetSweepErrors()
	})
}

// runCellScenario builds a real supervised scenario and pushes traffic
// through its bottleneck, so a panic after it unwinds a live engine.
func runCellScenario(c *Cell, seed int64) {
	eng, d := c.newScenario(seed, topology.Config{Rate: 1e6})
	f := TCPAlgo(0.5).Make(eng, d, 1)
	eng.At(0, f.Sender.Start)
	eng.RunUntil(2)
}

func TestSupervisePanicBecomesRunError(t *testing.T) {
	withDeadline(t, 0)

	_, rerr := Supervise(7, func(c *Cell) int {
		runCellScenario(c, 1)
		panic("poisoned cell")
	})
	if rerr == nil {
		t.Fatal("panicking cell returned nil RunError")
	}
	if rerr.Index != 7 || rerr.Deadline {
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
	// Supervise (non-sweep) must not pollute the sweep collector.
	if errs := SweepErrors(); len(errs) != 0 {
		t.Fatalf("Supervise recorded %d sweep errors, want 0", len(errs))
	}
}

func TestSuperviseDeadlineHalt(t *testing.T) {
	withDeadline(t, 20*time.Millisecond)

	start := time.Now()
	_, rerr := Supervise(3, func(c *Cell) int {
		time.Sleep(500 * time.Millisecond)
		return 42
	})
	if rerr == nil {
		t.Fatal("over-deadline cell returned nil RunError")
	}
	if !rerr.Deadline || rerr.Index != 3 {
		t.Fatalf("RunError = %+v, want Deadline on index 3", rerr)
	}
	if elapsed := time.Since(start); elapsed > 400*time.Millisecond {
		t.Fatalf("supervisor waited %v for an abandoned cell", elapsed)
	}
	if !strings.Contains(rerr.Error(), "deadline") {
		t.Fatalf("Error() = %q, want a deadline message", rerr.Error())
	}
}

func TestSupervisedSweepSurvivesPoisonedCell(t *testing.T) {
	withDeadline(t, 0)

	const n, poisoned = 5, 2
	out := supervisedMap(n, func(c *Cell) int {
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
	errs := SweepErrors()
	if len(errs) != 1 {
		t.Fatalf("sweep recorded %d degraded cells, want exactly 1", len(errs))
	}
	e := errs[0]
	if e.Index != poisoned || e.Deadline {
		t.Fatalf("RunError = %+v, want a panic at index %d", e, poisoned)
	}
	if !strings.Contains(e.Stack, "runCellScenario") && !strings.Contains(e.Stack, "supervise_test") {
		t.Fatalf("RunError.Stack does not mention the panicking frame:\n%s", e.Stack)
	}
	ResetSweepErrors()
	if len(SweepErrors()) != 0 {
		t.Fatal("ResetSweepErrors left errors behind")
	}
}

// TestSupervisedDriverSweepPartialResults runs a real figure driver with
// a run budget so tight every cell halts early, proving a degraded
// configuration still yields a full-length, well-formed result slice.
func TestSupervisedDriverSweepPartialResults(t *testing.T) {
	withDeadline(t, 0)
	prev := SetRunBudget(&sim.Budget{MaxEvents: 5000})
	defer SetRunBudget(prev)

	res := Fig6(Fig6Config{
		Backgrounds: []AlgoSpec{TCPAlgo(0.5), TFRCAlgo(TFRCOpts{K: 8})},
		Flows:       2, Rate: 1e6, End: 30, Seed: 1,
	})
	if len(res) != 2 {
		t.Fatalf("Fig6 returned %d results, want 2", len(res))
	}
	for i, r := range res {
		if r.Background == "" {
			t.Fatalf("result %d lost its background label under a budget halt", i)
		}
	}
	if errs := SweepErrors(); len(errs) != 0 {
		t.Fatalf("budget-halted (non-panicking) cells recorded errors: %v", errs)
	}
}

func TestSuperviseDeadlinePairsWithBudget(t *testing.T) {
	// The documented pairing: a deadline abandons the goroutine, and the
	// engine budget guarantees the abandoned run terminates instead of
	// spinning forever. Give the cell a generous event budget but a tiny
	// wall budget plus a deadline, and check both trip.
	withDeadline(t, 10*time.Millisecond)
	prev := SetRunBudget(&sim.Budget{MaxWall: 5 * time.Millisecond})
	defer SetRunBudget(prev)

	done := make(chan struct{})
	_, rerr := Supervise(0, func(c *Cell) int {
		defer close(done)
		eng := sim.New(1)
		eng.SetBudget(c.env.budget)
		var tick func()
		tick = func() {
			time.Sleep(50 * time.Microsecond)
			eng.After(1e-6, tick)
		}
		eng.After(0, tick)
		eng.RunUntil(1e9)
		return 1
	})
	if rerr == nil || !rerr.Deadline {
		t.Fatalf("want a deadline RunError, got %v", rerr)
	}
	select {
	case <-done:
		// The abandoned goroutine terminated because the wall budget
		// halted its engine.
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned cell never halted; the budget pairing is broken")
	}
}

func TestSweepTimelineEmitsCellSpans(t *testing.T) {
	withDeadline(t, 0)
	tl := obs.NewTimeline()
	prev := SetSweepTimeline(tl)
	defer SetSweepTimeline(prev)

	const n, poisoned = 6, 4
	// Hold each worker's first cell until every worker has one, so no
	// worker can drain the sweep before another starts and every lane,
	// "worker 0" included, is certain to appear.
	workers := min(runtime.GOMAXPROCS(0), n)
	var taken atomic.Int32
	allBusy := make(chan struct{})
	supervisedMap(n, func(c *Cell) int {
		if int(taken.Add(1)) == workers {
			close(allBusy)
		}
		<-allBusy
		if c.Index() == poisoned {
			panic("always fails")
		}
		return c.Index()
	})

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
	withDeadline(t, 0)
	tl := obs.NewTimeline()
	prev := SetSweepTimeline(tl)
	defer SetSweepTimeline(prev)
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
	supervisedMap(n, cell)
	firstEnd := 0.0
	for _, sp := range spans("running") {
		firstEnd = max(firstEnd, sp.Ts+sp.Dur)
	}
	supervisedMap(n, cell)
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
	withDeadline(t, 0)
	tl := obs.NewTimeline()
	SetSweepTimeline(tl)
	SetSweepTimeline(nil)
	supervisedMap(3, func(c *Cell) int { return c.Index() })
	if got := tl.Len(); got != 0 {
		t.Fatalf("removed timeline still collected %d events", got)
	}
}
