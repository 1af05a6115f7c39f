package sim

import (
	"slices"
	"testing"
)

// AtFunc events interleave with At events in strict schedule order: the
// handle-less fast path must not perturb the (time, seq) FIFO tiebreak.
func TestAtFuncFIFOWithAt(t *testing.T) {
	e := New(1)
	var got []int
	e.At(1, func() { got = append(got, 0) })
	e.AtFunc(1, func(arg any) { got = append(got, arg.(int)) }, 1)
	e.At(1, func() { got = append(got, 2) })
	e.AtFunc(1, func(arg any) { got = append(got, arg.(int)) }, 3)
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("execution order %v, want 0..3 in schedule order", got)
		}
	}
}

// The argument delivered to an AtFunc callback is the one captured at
// schedule time, even after the timer object is recycled for another
// event between schedule and fire.
func TestAtFuncArgIntegrity(t *testing.T) {
	e := New(1)
	var got []string
	fn := func(arg any) { got = append(got, arg.(string)) }
	e.AtFunc(1, fn, "a")
	e.AtFunc(2, fn, "b")
	e.RunUntil(1)
	e.AtFunc(3, fn, "c") // reuses the timer recycled by event "a"
	e.Run()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("got %v, want [a b c]", got)
	}
}

// ResetAt on a pending timer replaces its schedule: the old firing must
// vanish and the new one run, exactly like Stop followed by At.
func TestResetAtReplacesPending(t *testing.T) {
	e := New(1)
	fired := 0
	var tm *Timer
	tm = e.ResetAt(nil, 5, func() { t.Fatal("replaced firing ran") })
	tm = e.ResetAt(tm, 2, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
}

// ResetAt consumes exactly one sequence number, like At: two timers
// rescheduled to the same instant fire in reset order.
func TestResetAtSeqOrder(t *testing.T) {
	e := New(1)
	var got []int
	a := e.ResetAt(nil, 5, func() { got = append(got, -1) })
	b := e.ResetAt(nil, 6, func() { got = append(got, -2) })
	// Reset b first: at the shared deadline it must fire before a.
	e.ResetAt(b, 2, func() { got = append(got, 1) })
	e.ResetAt(a, 2, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v, want [1 2]", got)
	}
}

// A fired (not stopped) handle timer can be re-armed in place; a nil
// timer falls back to plain At.
func TestResetAtAfterFireAndNil(t *testing.T) {
	e := New(1)
	n := 0
	var tm *Timer
	var fn func()
	fn = func() {
		n++
		if n < 3 {
			tm = e.ResetAfter(tm, 1, fn)
		}
	}
	tm = e.ResetAfter(nil, 1, fn) // nil handle: a new one from the heap
	first := tm
	e.Run()
	if n != 3 {
		t.Fatalf("fired %d times, want 3", n)
	}
	if tm != first {
		t.Fatal("re-arming a fired handle must reuse the same Timer object")
	}
}

// Stop still works on a handle that has been re-armed via ResetAt.
func TestResetAtThenStop(t *testing.T) {
	e := New(1)
	tm := e.ResetAt(nil, 1, func() { t.Fatal("must not fire") })
	tm = e.ResetAt(tm, 2, func() { t.Fatal("must not fire either") })
	if !tm.Stop() {
		t.Fatal("Stop on re-armed pending timer returned false")
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events left in heap after Stop", e.Pending())
	}
	e.Run()
}

// Pending distinguishes armed, fired, and stopped states; nil is never
// pending.
func TestTimerPending(t *testing.T) {
	e := New(1)
	var nilT *Timer
	if nilT.Pending() {
		t.Fatal("nil timer pending")
	}
	tm := e.ResetAt(nil, 1, func() {})
	if !tm.Pending() {
		t.Fatal("armed timer not pending")
	}
	e.Run()
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
	tm2 := e.ResetAt(nil, 2, func() {})
	tm2.Stop()
	if tm2.Pending() {
		t.Fatal("stopped timer still pending")
	}
}

// At and After are engine-owned: a fired one goes back to the free list.
// A handle comes from the heap, never from that list, and stays its
// holder's after it fires.
func TestOnlyEngineOwnedTimersRecycle(t *testing.T) {
	e := New(1)
	e.At(1, func() {})
	e.After(2, func() {})
	e.Run()
	if len(e.free) != 2 {
		t.Fatalf("free list holds %d timers after two At/After events fired, want 2", len(e.free))
	}
	parked := slices.Clone(e.free)
	tm := e.ResetAt(nil, 3, func() {})
	if slices.Contains(parked, tm) || len(e.free) != 2 {
		t.Fatal("a handle was drawn from the free list")
	}
	e.Run()
	if slices.Contains(e.free, tm) {
		t.Fatal("a fired handle was recycled")
	}
}

// BenchmarkEngineEventTurnover measures the raw scheduler: one pre-bound
// AtFunc event rescheduling itself, no network model. The allocs/op
// figure is the engine's contribution to the packet path.
func BenchmarkEngineEventTurnover(b *testing.B) {
	e := New(1)
	var fn func(any)
	fn = func(arg any) { e.AfterFunc(0.001, fn, arg) }
	e.AfterFunc(0.001, fn, nil)
	e.RunUntil(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunUntil(e.Now() + 0.001)
	}
}
