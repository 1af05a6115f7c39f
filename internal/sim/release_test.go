package sim

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

// raceDetector reports whether the test binary was built with -race.
func raceDetector() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// mallocs returns how many heap objects run allocates.
func mallocs(run func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// A released engine leaves nothing pending, and the next engine starts
// with its timer free list and calendar ring: it schedules as many events
// as the released one parked without allocating, every inherited timer is
// its own, and the events run as they would on a fresh engine. One P and
// no collection, so the spares cannot go elsewhere.
func TestReleasedEngineStocksTheNext(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 600 // past two timers per bucket, so the ring grows
	fired := 0
	fire := func(any) { fired++ }

	a := New(1)
	a.AtFunc(2, fire, nil) // pending at Release: parked unrun
	for i := 0; i < n; i++ {
		a.AtFunc(1, fire, nil)
	}
	a.RunUntil(1)
	a.Release(func(any) {})
	if a.Pending() != 0 {
		t.Fatalf("released engine holds %d timers", a.Pending())
	}

	b := New(2)
	if len(b.free) == 0 && raceDetector() {
		t.Skip("the race detector's sync.Pool dropped the spares, as it drops a random quarter of what it is given")
	}
	if got := mallocs(func() {
		for i := 0; i < n; i++ {
			b.AtFunc(3, fire, nil)
		}
	}); got != 0 {
		t.Fatalf("scheduling %d events on a stocked engine allocated %d objects", n, got)
	}
	tm := b.ResetAfterFunc(nil, 4, fire, nil)
	if tm.eng != b {
		t.Fatal("an inherited timer still belongs to the released engine")
	}
	if got := mallocs(func() { b.ResetAfterFunc(tm, 5, fire, nil) }); got != 0 {
		t.Fatalf("re-arming an inherited handle allocated %d objects", got)
	}
	fired = 0
	b.RunUntil(10)
	if fired != n+1 || b.Pending() != 0 {
		t.Fatalf("stocked engine fired %d of %d events, %d left pending", fired, n+1, b.Pending())
	}
}

// A ring that shrank as its load drained grows back into its own
// storage.
func TestCalendarRingRegrowsInPlace(t *testing.T) {
	e := New(1)
	fire := func(any) {}
	burst := func() {
		for i := 0; i < 2000; i++ {
			e.AtFunc(e.Now()+float64(i)*1e-3, fire, nil)
		}
	}
	burst()
	grown := e.cq.b
	e.RunUntil(e.Now() + 10)
	if len(e.cq.b) >= len(grown) {
		t.Fatalf("ring stayed at %d buckets after draining, want it to shrink below %d", len(e.cq.b), len(grown))
	}
	burst()
	if len(e.cq.b) != len(grown) || &e.cq.b[0] != &grown[0] {
		t.Fatalf("ring regrew to %d buckets in new storage; the first burst grew it to %d", len(e.cq.b), len(grown))
	}
}

// Release hands each pending engine-owned timer's argument to reclaim
// exactly once and parks the timer, unlinked, for the next engine, which
// then serves as many AtFuncs as the released one held without
// allocating. A handle timer is unlinked too but never parked: its
// holder may still reach it. The calendar schedule puts timers of both
// kinds in the ring's buckets and in its far tier.
func TestReleaseReclaimsPendingTimers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 300
	fire := func(any) {}
	at := func(i int) Time {
		if i%10 == 0 {
			return 10 + float64(i) // a year and more ahead: the far tier
		}
		return float64(i) * 1e-5
	}
	for _, kind := range []QueueKind{CalendarQueue, HeapQueue} {
		t.Run(map[QueueKind]string{CalendarQueue: "calendar", HeapQueue: "heap"}[kind], func(t *testing.T) {
			for released.Get() != nil { // spares other tests parked
			}
			a := NewWithQueue(1, kind)
			args := make([]*int, n)
			for i := range args {
				args[i] = new(int)
				a.AtFunc(at(i), fire, args[i])
			}
			var handles []*Timer
			for i := 0; i < 3; i++ {
				handles = append(handles, a.At(20, func() {}), a.ResetAtFunc(nil, 5e-4, fire, args[i]))
			}
			seen := map[any]int{}
			a.Release(func(arg any) { seen[arg]++ })
			for i, p := range args {
				if seen[p] != 1 {
					t.Fatalf("reclaim saw argument %d %d times, want once", i, seen[p])
				}
			}
			if len(seen) != n {
				t.Fatalf("reclaim saw %d arguments, want the %d engine-owned timers'", len(seen), n)
			}
			for _, h := range handles {
				if h.Pending() || h.index != -1 || h.bkt != bktNone || h.next != nil || h.prev != nil {
					t.Fatalf("a handle timer is still linked after Release: index %d, bucket %d", h.index, h.bkt)
				}
			}

			b := NewWithQueue(2, kind)
			if len(b.free) == 0 && raceDetector() {
				t.Skip("the race detector's sync.Pool dropped the spares")
			}
			if len(b.free) != n {
				t.Fatalf("the next engine inherited %d timers, want the %d engine-owned ones", len(b.free), n)
			}
			for _, tm := range b.free {
				if slices.Contains(handles, tm) {
					t.Fatal("a handle timer reached the free list")
				}
				if tm.arg != nil || tm.pooled || tm.index != -1 || tm.next != nil {
					t.Fatal("a parked timer kept its argument or its links")
				}
			}
			if got := mallocs(func() {
				for i := 0; i < n; i++ {
					b.AtFunc(at(i), fire, nil)
				}
			}); got != 0 {
				t.Fatalf("serving %d AtFuncs from the released timers allocated %d objects", n, got)
			}
			b.Run()
			if b.Steps() != n {
				t.Fatalf("the next engine fired %d of %d events", b.Steps(), n)
			}
		})
	}
}
