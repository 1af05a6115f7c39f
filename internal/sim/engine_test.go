package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := New(1)
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestAtRunsInTimeOrder(t *testing.T) {
	e := New(1)
	var got []Time
	for _, at := range []Time{3, 1, 2, 0.5, 2.5} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	e.Run()
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events ran out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("ran %d events, want 5", len(got))
	}
	if e.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(1.0, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("event %d ran in slot %d; same-instant events must be FIFO", v, i)
		}
	}
}

func TestAfterIsRelative(t *testing.T) {
	e := New(1)
	var at Time
	e.At(2, func() {
		e.After(3, func() { at = e.Now() })
	})
	e.Run()
	if at != 5 {
		t.Fatalf("After fired at %v, want 5", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New(1)
	e.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(1, func() {})
	})
	e.Run()
}

func TestNegativeAfterPanics(t *testing.T) {
	e := New(1)
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestTimerStop(t *testing.T) {
	e := New(1)
	ran := false
	tm := e.ResetAt(nil, 1, func() { ran = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	e.Run()
	if ran {
		t.Fatal("stopped timer still ran")
	}
	if tm.Pending() {
		t.Fatal("Pending() = true after Stop")
	}
}

func TestStopAfterFire(t *testing.T) {
	e := New(1)
	tm := e.ResetAt(nil, 1, func() {})
	e.Run()
	if tm.Stop() {
		t.Fatal("Stop() = true on fired timer")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := New(1)
	var fired []Time
	e.At(1, func() { fired = append(fired, 1) })
	e.At(2, func() { fired = append(fired, 2) })
	e.At(10, func() { fired = append(fired, 10) })

	e.RunUntil(5)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(5) ran %d events, want 2", len(fired))
	}
	if e.Now() != 5 {
		t.Fatalf("Now() = %v after RunUntil(5), want 5", e.Now())
	}
	e.RunUntil(20)
	if len(fired) != 3 {
		t.Fatalf("RunUntil(20) total %d events, want 3", len(fired))
	}
	if e.Now() != 20 {
		t.Fatalf("Now() = %v, want 20", e.Now())
	}
}

func TestRunUntilInclusive(t *testing.T) {
	e := New(1)
	ran := false
	e.At(5, func() { ran = true })
	e.RunUntil(5)
	if !ran {
		t.Fatal("event at the horizon did not run; RunUntil must be inclusive")
	}
}

func TestSelfRescheduling(t *testing.T) {
	e := New(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	e.Run()
	if count != 10 {
		t.Fatalf("ticked %d times, want 10", count)
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %v, want 10", e.Now())
	}
}

func TestStepsCounter(t *testing.T) {
	e := New(1)
	for i := 0; i < 7; i++ {
		e.At(Time(i), func() {})
	}
	stopped := e.ResetAt(nil, 100, func() {})
	stopped.Stop()
	e.Run()
	if e.Steps() != 7 {
		t.Fatalf("Steps() = %d, want 7 (stopped timers must not count)", e.Steps())
	}
}

func TestDeterminismAcrossEngines(t *testing.T) {
	run := func(seed int64) []Time {
		e, rng := New(seed), rand.New(rand.NewSource(seed))
		var trace []Time
		var emit func()
		emit = func() {
			trace = append(trace, e.Now())
			if len(trace) < 200 {
				e.After(rng.Float64(), emit)
			}
		}
		e.After(0, emit)
		e.Run()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("traces differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any batch of events with arbitrary (non-negative) times,
// execution order is sorted by time, and the engine clock ends at the max.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		e := New(1)
		var got []Time
		var max Time
		for _, r := range raw {
			at := Time(r) / 100
			if at > max {
				max = at
			}
			e.At(at, func() { got = append(got, at) })
		}
		e.Run()
		if !sort.Float64sAreSorted(got) {
			return false
		}
		return len(got) == len(raw) && (len(raw) == 0 || e.Now() == max)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: stopping a random subset of timers means exactly the
// complement runs.
func TestPropertyStopSubset(t *testing.T) {
	f := func(n uint8, seed int64) bool {
		e := New(1)
		rng := rand.New(rand.NewSource(seed))
		ran := make(map[int]bool)
		var timers []*Timer
		for i := 0; i < int(n); i++ {
			i := i
			timers = append(timers, e.ResetAt(nil, Time(i%7), func() { ran[i] = true }))
		}
		stopped := make(map[int]bool)
		for i, tm := range timers {
			if rng.Intn(2) == 0 {
				tm.Stop()
				stopped[i] = true
			}
		}
		e.Run()
		for i := range timers {
			if stopped[i] == ran[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestStopRemovesTimerFromHeap is the regression test for the Stop
// leak: stopped timers used to linger in the heap until their deadline
// passed, so timer-heavy scenarios (flash crowds, per-packet retransmit
// timers) grew the heap without bound and Pending() overcounted.
func TestStopRemovesTimerFromHeap(t *testing.T) {
	e := New(1)
	const n = 100000
	for i := 0; i < n; i++ {
		e.ResetAt(nil, 1e6, func() {}).Stop()
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after stopping all %d timers, want 0 (heap leak)", got, n)
	}
	if n := len(e.events) + queuedInCalendar(e); n != 0 {
		t.Fatalf("queue holds %d entries after stopping all timers", n)
	}
}

// TestPendingExactWithMixedStops interleaves live and stopped timers and
// requires Pending() to count exactly the live ones, which must all
// still fire in order.
func TestPendingExactWithMixedStops(t *testing.T) {
	e := New(1)
	const n = 10000
	live := 0
	fired := 0
	for i := 0; i < n; i++ {
		tm := e.ResetAt(nil, Time(i%97), func() { fired++ })
		if i%3 == 0 {
			tm.Stop()
		} else {
			live++
		}
	}
	if got := e.Pending(); got != live {
		t.Fatalf("Pending() = %d, want exactly %d live timers", got, live)
	}
	e.Run()
	if fired != live {
		t.Fatalf("%d timers fired, want %d", fired, live)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after Run, want 0", e.Pending())
	}
}

// TestNonFiniteTimePanics is the regression test for the NaN hole: a
// NaN timestamp compares false against everything, so it slipped past
// the t < now guard and silently corrupted heap ordering for every
// later event. Non-finite times must take the same panic path as
// scheduling in the past.
func TestNonFiniteTimePanics(t *testing.T) {
	for _, bad := range []Time{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := bad
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%v) did not panic", bad)
				}
			}()
			New(1).At(bad, func() {})
		}()
	}
	// A NaN duration (e.g. from a zero-RTT division upstream) must be
	// rejected by After as well.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("After(NaN) did not panic")
			}
		}()
		New(1).After(math.NaN(), func() {})
	}()
}

func BenchmarkEngineTimerChurn(b *testing.B) {
	e := New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(0.001, tick)
		}
	}
	e.After(0.001, tick)
	b.ResetTimer()
	e.Run()
}
