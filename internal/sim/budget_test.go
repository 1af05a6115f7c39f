package sim

import (
	"strings"
	"testing"
	"time"
)

// tick builds a self-rescheduling event chain advancing dt per event.
func tick(e *Engine, dt Time) {
	var fn func()
	fn = func() { e.After(dt, fn) }
	e.After(dt, fn)
}

// runBounded runs e to completion under b and returns what halted it
// (nil when the queue drained inside the budget).
func runBounded(e *Engine, b Budget) *HaltReason {
	e.SetBudget(&b)
	e.Run()
	return e.Halted()
}

func TestRunBoundedMaxEvents(t *testing.T) {
	e := New(1)
	tick(e, 1)
	hr := runBounded(e, Budget{MaxEvents: 100})
	if hr == nil || hr.Cause != HaltEvents {
		t.Fatalf("cause %v, want %v", hr.Cause, HaltEvents)
	}
	if hr.Events != 100 || e.Steps() != 100 {
		t.Fatalf("executed %d/%d events, want 100", hr.Events, e.Steps())
	}
	if hr.SimTime != 100 || e.Now() != 100 {
		t.Fatalf("halted at t=%v, want 100", hr.SimTime)
	}
	if !strings.Contains(hr.String(), "max-events") {
		t.Fatalf("HaltReason %q does not name the cause", hr)
	}
}

func TestRunBoundedMaxWall(t *testing.T) {
	e := New(1)
	var fn func()
	fn = func() { time.Sleep(20 * time.Microsecond); e.After(1, fn) }
	e.After(1, fn)
	hr := runBounded(e, Budget{MaxWall: 20 * time.Millisecond})
	if hr == nil || hr.Cause != HaltWall {
		t.Fatalf("cause %v, want %v", hr.Cause, HaltWall)
	}
	if hr.Wall < 20*time.Millisecond {
		t.Fatalf("halted after %v wall, before the budget", hr.Wall)
	}
}

// The clock is read about once a millisecond, however slow the events:
// a run of 200 µs events overshoots its wall budget by about one event,
// not by the 2048 events (410 ms) a fixed stride would run first.
func TestRunBoundedMaxWallSlowEvents(t *testing.T) {
	e := New(1)
	var fn func()
	fn = func() {
		for t0 := time.Now(); time.Since(t0) < 200*time.Microsecond; {
		}
		e.After(1, fn)
	}
	e.After(1, fn)
	const budget = 10 * time.Millisecond
	hr := runBounded(e, Budget{MaxWall: budget})
	if hr == nil || hr.Cause != HaltWall {
		t.Fatalf("cause %v, want %v", hr, HaltWall)
	}
	if hr.Wall > budget+200*time.Millisecond {
		t.Fatalf("halted %v past a %v budget, after %d events", hr.Wall-budget, budget, hr.Events)
	}
}

func TestRunBoundedDone(t *testing.T) {
	e := New(1)
	for i := 1; i <= 5; i++ {
		e.At(Time(i), func() {})
	}
	if hr := runBounded(e, Budget{MaxEvents: 1000}); hr != nil || e.Steps() != 5 || e.Now() != 5 {
		t.Fatalf("halted %v after %d events at t=%v, want done after 5 events at t=5", hr, e.Steps(), e.Now())
	}
}

// SetBudget bounds plain RunUntil driver loops, and a budget that
// halted once halts every later leg instead of creeping past its
// limit in installments.
func TestBudgetBoundsRunUntil(t *testing.T) {
	e := New(1)
	tick(e, 1)
	e.SetBudget(&Budget{MaxEvents: 50})
	e.RunUntil(1000)
	if e.Steps() != 50 {
		t.Fatalf("executed %d events, want 50", e.Steps())
	}
	if e.Now() != 50 {
		t.Fatalf("clock advanced to %v; a halted run must not jump to the horizon", e.Now())
	}
	hr := e.Halted()
	if hr == nil || hr.Cause != HaltEvents {
		t.Fatalf("Halted() = %v, want max-events", hr)
	}
	e.RunUntil(2000)
	if e.Steps() != 50 {
		t.Fatalf("second leg executed %d more events past an exhausted budget", e.Steps()-50)
	}
	e.SetBudget(nil)
	if e.Halted() != nil {
		t.Fatal("removing the budget must clear Halted")
	}
}

func TestBudgetRunUntilNormalCompletion(t *testing.T) {
	e := New(1)
	e.At(1, func() {})
	e.SetBudget(&Budget{MaxEvents: 1000})
	e.RunUntil(30)
	if e.Now() != 30 {
		t.Fatalf("clock %v, want 30 (unhalted RunUntil advances to the horizon)", e.Now())
	}
	if e.Halted() != nil {
		t.Fatalf("Halted() = %v on a run inside budget", e.Halted())
	}
}

// The livelock watchdog panics with a reason naming the livelock.
func TestLivelockWatchdog(t *testing.T) {
	e := New(1)
	var fn func()
	fn = func() { e.At(e.Now(), fn) } // reschedules at now forever
	e.At(1, fn)
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("livelock did not panic")
		}
		msg, _ := v.(string)
		if !strings.Contains(msg, "livelock") {
			t.Fatalf("panic %q does not name the livelock", msg)
		}
		if e.Steps() < 1000 {
			t.Fatalf("tripped after %d events, threshold 1000", e.Steps())
		}
	}()
	runBounded(e, Budget{LivelockEvents: 1000})
}

// Progress resets the watchdog: a burst of same-time events below the
// threshold is fine as long as the clock eventually advances.
func TestLivelockWatchdogResetsOnProgress(t *testing.T) {
	e := New(1)
	for i := 1; i <= 20; i++ {
		at := Time(i)
		for j := 0; j < 500; j++ { // 500 same-time events per tick
			e.At(at, func() {})
		}
	}
	if hr := runBounded(e, Budget{LivelockEvents: 1000}); hr != nil || e.Steps() != 20*500 {
		t.Fatalf("halted %v after %d events, want clean completion of 10000 events", hr, e.Steps())
	}
}
