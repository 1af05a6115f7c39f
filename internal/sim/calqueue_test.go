// Edge-case coverage for the calendar queue: same-instant FIFO across
// ring rotation, handle operations on overflow residents, rejection
// parity with the heap, and a randomized heap-vs-calendar differential
// over a million mixed operations. These are the white-box half of the
// exactness argument in calqueue.go; the macro-level half (pinned event
// streams) lives in the top-level calendar_off_test.go.
package sim

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// queuedInCalendar counts live timers actually resident in the calendar
// queue's buckets and overflow, for white-box leak assertions.
func queuedInCalendar(e *Engine) int {
	if e.cq == nil {
		return 0
	}
	n := 0
	for i := range e.cq.b {
		for tm := e.cq.b[i].head; tm != nil; tm = tm.next {
			n++
		}
	}
	n += len(e.cq.overflow) - e.cq.ohead
	return n
}

// Same-instant groups must fire in schedule order even when their shared
// deadline is many ring revolutions away: the groups are scheduled
// interleaved (round-robin across deadlines), land in the overflow,
// migrate into buckets as the cursor wraps, and must still come out in
// exact (at, seq) order.
func TestCalendarSameInstantFIFOAcrossRotation(t *testing.T) {
	e := NewWithQueue(3, CalendarQueue)
	if e.cq == nil {
		t.Fatal("engine built with CalendarQueue has no calendar queue")
	}
	year := e.cq.width * Time(len(e.cq.b))

	// 64 distinct deadlines spread over ~24 ring revolutions, offset so
	// none sits on a bucket boundary.
	var deadlines []Time
	for k := 0; k < 64; k++ {
		deadlines = append(deadlines, Time(k)*year*0.37+year/3)
	}

	type ev struct {
		at Time
		id int
	}
	var want []ev
	var got []int
	id := 0
	for round := 0; round < 3; round++ {
		for _, d := range deadlines {
			myid := id
			id++
			e.At(d, func() { got = append(got, myid) })
			want = append(want, ev{d, myid})
		}
	}
	// Stable sort by deadline keeps schedule order within each
	// same-instant group — exactly the (at, seq) order the engine owes.
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })

	e.Run()
	if len(got) != len(want) {
		t.Fatalf("fired %d events, scheduled %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i].id {
			t.Fatalf("event %d: fired id %d, want %d (deadline %v)", i, got[i], want[i].id, want[i].at)
		}
	}
	if n := queuedInCalendar(e); n != 0 {
		t.Fatalf("%d timers left in calendar structures after drain", n)
	}
}

// A peek can advance the sweep cursor across empty buckets; a later
// insert behind the cursor must rewind it, or the new event would be
// skipped until a full fruitless revolution forced the direct scan.
func TestCalendarRewindOnInsertAfterPeek(t *testing.T) {
	e := NewWithQueue(1, CalendarQueue)
	w := e.cq.width
	var got []int
	e.At(10*w+w/2, func() { got = append(got, 1) })
	if tm := e.peekMin(); tm == nil {
		t.Fatal("peekMin returned nil with one timer queued")
	}
	// The cursor now sits on epoch 10; this lands on epoch 2, behind it.
	e.At(2*w+w/2, func() { got = append(got, 0) })
	if e.cq.curEpoch > 2 {
		t.Fatalf("cursor not rewound: curEpoch %d after insert at epoch 2", e.cq.curEpoch)
	}
	e.Run()
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("fired order %v, want [0 1]", got)
	}
}

// Stop and ResetAt on timers resident in the sorted overflow slice: the
// slice must stay sorted and index-consistent, a stopped overflow timer
// must never fire, and a re-armed one must fire at its new time.
func TestCalendarStopResetOverflowTimer(t *testing.T) {
	e := NewWithQueue(1, CalendarQueue)
	var got []string
	a := e.ResetAt(nil, 1e6, func() { got = append(got, "a") })
	b := e.ResetAt(nil, 2e6, func() { got = append(got, "b") })
	c := e.ResetAt(nil, 1.5e6, func() { got = append(got, "c") })
	for _, tc := range []struct {
		name string
		tm   *Timer
	}{{"a", a}, {"b", b}, {"c", c}} {
		if tc.tm.bkt != bktOverflow {
			t.Fatalf("timer %s: bkt %d, want overflow (%d)", tc.name, tc.tm.bkt, bktOverflow)
		}
	}
	// The overflow is sorted (a, c, b); remove from the middle.
	if !c.Stop() {
		t.Fatal("Stop on a pending overflow timer returned false")
	}
	if c.Pending() {
		t.Fatal("stopped overflow timer still Pending")
	}
	if c.Stop() {
		t.Fatal("second Stop returned true")
	}
	if n := queuedInCalendar(e); n != 2 {
		t.Fatalf("%d timers queued after stopping one of three", n)
	}
	// Re-arm one overflow resident to the near future — within one ring
	// revolution, so it leaves the overflow for a bucket — and the other
	// within the overflow.
	b = e.ResetAt(b, 0.01, func() { got = append(got, "b2") })
	if b.bkt == bktOverflow {
		t.Fatal("timer re-armed to the near future still in overflow")
	}
	a = e.ResetAt(a, 3e6, func() { got = append(got, "a2") })
	if a.bkt != bktOverflow {
		t.Fatal("timer re-armed far ahead left the overflow")
	}
	e.Run()
	if len(got) != 2 || got[0] != "b2" || got[1] != "a2" {
		t.Fatalf("fired %v, want [b2 a2]", got)
	}
	if got := e.Now(); got != 3e6 {
		t.Fatalf("clock at %v after drain, want 3e6", got)
	}
}

// checkBucket walks bucket bi and fails unless its list is (at, seq)
// sorted, every resident maps to bi, and tail is its last timer: a tail
// left pointing at a removed timer would swallow the next append.
func checkBucket(t *testing.T, cq *calQueue, bi int64, step string) int {
	t.Helper()
	bk := &cq.b[bi]
	n := 0
	var last *Timer
	for tm := bk.head; tm != nil; tm = tm.next {
		if last != nil && !timerLess(last, tm) {
			t.Fatalf("%s: bucket %d out of (at, seq) order", step, bi)
		}
		if tm.bkt != bktRing || cq.epochOf(tm.at)&cq.mask != bi {
			t.Fatalf("%s: a timer in bucket %d has state %d and maps to bucket %d", step, bi, tm.bkt, cq.epochOf(tm.at)&cq.mask)
		}
		last = tm
		n++
	}
	if bk.tail != last {
		t.Fatalf("%s: bucket %d's tail is not its last timer", step, bi)
	}
	return n
}

// The buckets are singly linked: removing a timer walks from the head to
// its predecessor and, for the tail, moves the tail back. Stop and
// ResetAt on a bucket's head, middle and tail, then appends and pops
// until it is empty, must keep the same order as the heap; a stale tail
// shows as an append that never fires.
func TestCalendarBucketRemoval(t *testing.T) {
	cal, heap := NewWithQueue(1, CalendarQueue), NewWithQueue(1, HeapQueue)
	w := cal.cq.width
	base := 10*w + w/64 // every time below sits in one bucket
	in := func(k int) Time { return base + Time(k)*w/64 }
	var got [2][]int
	var hs [2][]*Timer
	for side, e := range []*Engine{cal, heap} {
		for k := range 8 {
			hs[side] = append(hs[side], e.ResetAt(nil, in(4*k), func() { got[side] = append(got[side], k) }))
		}
	}
	bi := cal.cq.epochOf(base) & cal.cq.mask
	if n := checkBucket(t, cal.cq, bi, "setup"); n != 8 {
		t.Fatalf("%d of 8 timers share the bucket; the times straddle a bucket boundary", n)
	}
	ops := []struct {
		name string
		k    int  // handle
		stop bool // Stop; otherwise ResetAt to at
		at   int  // in(at), and the id it fires as
	}{
		{"stop tail", 7, true, 0},
		{"stop head", 0, true, 0},
		{"stop middle", 3, true, 0},
		{"re-arm head to the middle", 1, false, 13},
		{"re-arm tail to the head", 6, false, 1},
		{"re-arm middle to the tail", 4, false, 40},
		{"re-arm tail in place", 4, false, 41},
		{"stop tail again", 4, true, 0},
	}
	for _, op := range ops {
		for side, e := range []*Engine{cal, heap} {
			if op.stop {
				if !hs[side][op.k].Stop() {
					t.Fatalf("%s: Stop on a pending timer returned false", op.name)
				}
				continue
			}
			id := op.at
			hs[side][op.k] = e.ResetAt(hs[side][op.k], in(op.at), func() { got[side] = append(got[side], id) })
		}
		checkBucket(t, cal.cq, bi, op.name)
	}
	// Appends after the last removal land at the tail.
	for side, e := range []*Engine{cal, heap} {
		for _, k := range []int{42, 50, 60} {
			e.At(in(k), func() { got[side] = append(got[side], k) })
		}
	}
	if n := checkBucket(t, cal.cq, bi, "append"); n != cal.Pending() {
		t.Fatalf("bucket holds %d of the %d pending timers after the appends", n, cal.Pending())
	}
	for cal.step() {
		heap.step()
		checkBucket(t, cal.cq, bi, "pop")
	}
	if !slices.Equal(got[0], got[1]) || len(got[1]) != 7 {
		t.Fatalf("calendar fired %v, heap %v", got[0], got[1])
	}
}

// Stop and ResetAt locate a far-tier resident by Timer.index, and
// compaction moves every resident: the moment after one, each index must
// name its timer's new slot, or the removal takes out a neighbour.
func TestCalendarStopResetAfterCompaction(t *testing.T) {
	e := NewWithQueue(1, CalendarQueue)
	var got []int
	tms := make([]*Timer, 10)
	for i := range tms {
		tms[i] = e.ResetAt(nil, 1e6+Time(i), func() { got = append(got, i) })
	}
	if qs := e.QueueStats(); qs.FarLive != len(tms) {
		t.Fatalf("%d of %d far-future timers in the far tier", qs.FarLive, len(tms))
	}
	// Five pops leave a popped prefix as long as the live part, which is
	// what triggers the slide; the survivors now sit at slots 0..4.
	e.RunUntil(1e6 + 4.5)
	if qs := e.QueueStats(); qs.FarLive != 5 {
		t.Fatalf("FarLive %d after 5 of 10 pops, want 5", qs.FarLive)
	}
	if !tms[7].Stop() {
		t.Fatal("Stop on a far-tier resident returned false")
	}
	tms[6] = e.ResetAt(tms[6], 1e6+20, func() { got = append(got, 60) })
	if qs := e.QueueStats(); qs.FarLive != 4 {
		t.Fatalf("FarLive %d after stopping one of five residents, want 4", qs.FarLive)
	}
	e.Run()
	want := []int{0, 1, 2, 3, 4, 5, 8, 9, 60}
	if !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// tickLoad drives an engine with the packet-level simulator's bimodal
// schedule, all through pre-bound callbacks so the load itself never
// allocates: tickers that re-arm themselves every period (link
// transmissions), a one-shot a fixed 21 ms ahead on every hopEvery-th
// tick (a hop's propagation delay; none when 0), and on every tick one of
// a few handles pushed 200 ms out again (retransmit timers, which in a
// healthy flow never fire). peakFar tracks the far tier's largest live
// size, sampled after every tick — the only place this load inserts.
type tickLoad struct {
	e        *Engine
	tickFn   func(any) // l.tick, bound once: a method value allocates per use
	period   Time
	hopEvery int
	tickers  [4]*Timer
	rto      [16]*Timer
	ticks    int
	peakFar  int
}

// newTickLoad starts four tickers of a 20 µs period, staggered 5 µs
// apart, with a hop delivery on every fourth tick.
func newTickLoad(e *Engine) *tickLoad {
	l := &tickLoad{e: e, period: 20e-6, hopEvery: 4}
	l.tickFn = l.tick
	for i := range l.tickers {
		l.tickers[i] = e.ResetAfterFunc(nil, Time(i)*5e-6, l.tickFn, i)
	}
	return l
}

func (l *tickLoad) tick(arg any) {
	i := arg.(int)
	l.ticks++
	l.tickers[i] = l.e.ResetAfterFunc(l.tickers[i], l.period, l.tickFn, arg)
	if l.hopEvery > 0 && l.ticks%l.hopEvery == 0 {
		l.e.AfterFunc(0.021, deliver, nil)
	}
	j := l.ticks % len(l.rto)
	l.rto[j] = l.e.ResetAfterFunc(l.rto[j], 0.2, deliver, nil)
	l.peakFar = max(l.peakFar, l.e.QueueStats().FarLive)
}

func deliver(any) {}

// The ring must be sized by where timers land, not only by how many
// there are. With ~1000 timers pending the occupancy rule stops at 1024
// buckets; at the 10 µs width the 5 µs tick cadence adapts to, that is a
// 10 ms year, shorter than the 21 ms every one-shot is scheduled ahead —
// so one pop in five would go through the sorted far tier, and did, with
// the popped prefix never reclaimed while traffic continued. After
// warm-up the far tier must carry under an eighth of the pops, hold no
// more than its live residents need, and the whole queue must run
// allocation-free.
func TestCalendarRingFollowsSchedule(t *testing.T) {
	e := NewWithQueue(1, CalendarQueue)
	l := newTickLoad(e)
	e.RunUntil(0.5) // warm-up: width adapts, then the ring doubles twice
	warm, warmSteps := e.QueueStats(), e.Steps()
	if year := warm.Width * Time(warm.Buckets); year < 0.021 {
		t.Errorf("after warm-up a year is %v s (%d buckets of %v s), shorter than the 21 ms hop delay",
			year, warm.Buckets, warm.Width)
	}

	allocs := testing.AllocsPerRun(20, func() { e.RunUntil(e.Now() + 0.01) })
	if allocs != 0 {
		t.Errorf("%v allocs per 10 ms of steady state, want 0", allocs)
	}

	qs := e.QueueStats()
	far, pops := qs.FarPops-warm.FarPops, e.Steps()-warmSteps
	if far*8 >= pops {
		t.Errorf("%d of %d steady-state pops came through the far tier, want under 1/8", far, pops)
	}
	if qs.FarLive != len(l.rto) {
		t.Errorf("far tier holds %d timers, want only the %d retransmit timers", qs.FarLive, len(l.rto))
	}
	if limit := max(64, 2*l.peakFar); qs.FarCap > limit {
		t.Errorf("far tier capacity %d for a peak of %d live residents, want at most %d", qs.FarCap, l.peakFar, limit)
	}
	t.Logf("%+v, peak far-tier residents %d", qs, l.peakFar)
}

// The floor that far-tier traffic raised must hold for as long as the
// schedule still places timers that far ahead — even when so few are
// pending that the occupancy rule would halve the ring, which would put
// every hop delivery back in the far tier — and must come down once it
// stops: a sparse phase after a dense one is not to be left with a ring
// of thousands of buckets to sweep, rebuild and direct-scan.
func TestCalendarFloorHoldsThenDecays(t *testing.T) {
	e := NewWithQueue(1, CalendarQueue)
	l := newTickLoad(e)
	e.RunUntil(0.5)
	dense := e.QueueStats()
	if dense.Buckets <= 1024 {
		t.Fatalf("dense phase left %d buckets: far-tier traffic never grew the ring", dense.Buckets)
	}

	// Thin: one ticker of a 50 µs period with a hop delivery on each tick
	// is ~420 pending, under an eighth of the ring, all 21 ms ahead.
	for _, tm := range l.tickers[1:] {
		tm.Stop()
	}
	l.period, l.hopEvery = 50e-6, 1
	e.RunUntil(e.Now() + 0.1) // the dense phase's deliveries drain
	before, steps := e.QueueStats(), e.Steps()
	e.RunUntil(e.Now() + 2) // ~80000 pops, 19 adapt windows
	thin := e.QueueStats()
	if n := e.Pending(); n*8 >= dense.Buckets {
		t.Fatalf("%d pending for %d buckets: the occupancy rule is not what the floor is holding off", n, dense.Buckets)
	}
	if thin.Buckets != dense.Buckets {
		t.Errorf("ring went %d -> %d buckets while every tick still schedules 21 ms ahead", dense.Buckets, thin.Buckets)
	}
	if far, pops := thin.FarPops-before.FarPops, e.Steps()-steps; far*8 >= pops {
		t.Errorf("%d of %d thin-phase pops came through the far tier, want under 1/8", far, pops)
	}

	// Sparse: the load stops, and a lone 50 µs ticker places nothing more
	// than a few buckets ahead.
	l.tickers[0].Stop()
	var tm *Timer
	var lone func(any)
	lone = func(any) { tm = e.ResetAfterFunc(tm, 50e-6, lone, nil) }
	lone(nil)
	e.RunUntil(e.Now() + 4) // 80000 pops
	if sparse := e.QueueStats(); sparse.Buckets != calMinBuckets {
		t.Errorf("%d buckets 80000 pops into a sparse phase, want the floor released down to %d", sparse.Buckets, calMinBuckets)
	}
}

// Both queue kinds must reject exactly the same invalid timestamps, on
// the same shared validate path: NaN, ±Inf, and the past all panic; a
// huge-but-finite timestamp is accepted (the calendar parks it in the
// overflow rather than overflowing the epoch arithmetic).
func TestNonFiniteRejectionParity(t *testing.T) {
	panics := func(fn func()) (p bool) {
		defer func() { p = recover() != nil }()
		fn()
		return
	}
	for _, kind := range []QueueKind{CalendarQueue, HeapQueue} {
		name := map[QueueKind]string{CalendarQueue: "calendar", HeapQueue: "heap"}[kind]
		for _, bad := range []Time{math.NaN(), math.Inf(1), math.Inf(-1), -0.5} {
			e := NewWithQueue(1, kind)
			if !panics(func() { e.At(bad, func() {}) }) {
				t.Errorf("%s: At(%v) did not panic", name, bad)
			}
			e2 := NewWithQueue(1, kind)
			if !panics(func() { e2.AtFunc(bad, callFunc, func() {}) }) {
				t.Errorf("%s: AtFunc(%v) did not panic", name, bad)
			}
			e3 := NewWithQueue(1, kind)
			tm := e3.ResetAt(nil, 1, func() {})
			if !panics(func() { e3.ResetAt(tm, bad, func() {}) }) {
				t.Errorf("%s: ResetAt(%v) did not panic", name, bad)
			}
		}
		e := NewWithQueue(1, kind)
		fired := false
		if panics(func() { e.At(1e308, func() { fired = true }) }) {
			t.Errorf("%s: At(1e308) panicked; huge finite times are valid", name)
		}
		e.Run()
		if !fired {
			t.Errorf("%s: event at huge finite time never fired", name)
		}
	}
}

// Randomized differential test: a calendar-backed engine and a
// heap-backed engine are driven through the same ~1e6 mixed operations
// (schedules at mixed time scales, in-place re-arms, stops, and event
// pops) and must agree on every observable: the exact fired sequence,
// Stop results, the clock, and the pending count. The heap is the
// oracle; any divergence is an ordering bug in the calendar queue.
//
// The middle of the run switches to the packet-level simulator's bimodal
// shape (see TestCalendarRingFollowsSchedule) and ends with a burst that
// outgrows the ring, so far-tier-driven doubling, the raised floor,
// overflow compaction, the occupancy shrink and — over the sparse ops
// that follow — the floor's release all happen under the oracle; the
// assertions after the drain check that they did.
func TestCalendarVsHeapRandomizedOps(t *testing.T) {
	const ops = 1_000_000
	rng := rand.New(rand.NewSource(42))

	cal := NewWithQueue(7, CalendarQueue)
	heap := NewWithQueue(7, HeapQueue)
	var firedCal, firedHeap []int32

	// Parallel handle arrays: hCal[i] and hHeap[i] are the same logical
	// timer on the two engines.
	var hCal, hHeap []*Timer
	nextID := int32(0)

	// delay picks a duration from the schedule's mixed scales: ties (0),
	// sub-bucket, a few buckets, seconds, and the rare far-future jump
	// that exercises the overflow slice and migration.
	bimodal := false
	delay := func() Time {
		if bimodal {
			// Microsecond ticks, and one-shots a fixed hop delay ahead.
			if rng.Float64() < 0.7 {
				return 5e-6 * Time(1+rng.Intn(4))
			}
			return 0.021
		}
		switch r := rng.Float64(); {
		case r < 0.10:
			return 0
		case r < 0.45:
			return rng.Float64() * 1e-4
		case r < 0.80:
			return rng.Float64() * 0.05
		case r < 0.995:
			return 1 + rng.Float64()*10
		default:
			return rng.Float64() * 1e6
		}
	}
	schedule := func(d Time) {
		id := nextID
		nextID++
		hCal = append(hCal, cal.ResetAt(nil, cal.Now()+d, func() { firedCal = append(firedCal, id) }))
		hHeap = append(hHeap, heap.ResetAt(nil, heap.Now()+d, func() { firedHeap = append(firedHeap, id) }))
	}

	// stepBoth pops one event from each engine, and notes whether the
	// pop shrank the calendar's ring; held is the ring size the burst's
	// drain stopped at.
	shrunk, held := false, 0
	stepBoth := func(op int) {
		before := cal.QueueStats().Buckets
		pc, ph := cal.step(), heap.step()
		if pc != ph {
			t.Fatalf("op %d: step disagrees: calendar %v, heap %v", op, pc, ph)
		}
		shrunk = shrunk || cal.QueueStats().Buckets < before
	}
	for op := 0; op < ops; op++ {
		switch op {
		case ops * 2 / 5:
			// A standing population for the bimodal phase: with a few
			// thousand timers in flight the tick cadence is microseconds,
			// and a year of them is shorter than the one-shots' delay.
			bimodal = true
			for k := 0; k < 3000; k++ {
				schedule(delay())
			}
		case ops * 4 / 5:
			// More near-term timers than two per bucket: occupancy grows
			// the ring past the floor the far tier set, and draining them
			// must shrink it back to that floor, no further.
			bimodal = false
			for k := 2 * cal.QueueStats().Buckets; k > 0; k-- {
				schedule(rng.Float64() * 0.05)
			}
			for cal.Pending() > 16 {
				stepBoth(op)
			}
			held = cal.QueueStats().Buckets
		}
		switch r := rng.Float64(); {
		case r < 0.45:
			schedule(delay())
		case r < 0.60 && len(hCal) > 0:
			// Re-arm a random handle in place; it may be pending, fired,
			// or stopped — all three must behave identically.
			i := rng.Intn(len(hCal))
			d := delay()
			if bimodal {
				// RTO-like: a few handles pushed 200 ms out again and
				// again, resident in the far tier and never firing.
				i, d = rng.Intn(min(32, len(hCal))), 0.2
			}
			id := nextID
			nextID++
			hCal[i] = cal.ResetAt(hCal[i], cal.Now()+d, func() { firedCal = append(firedCal, id) })
			hHeap[i] = heap.ResetAt(hHeap[i], heap.Now()+d, func() { firedHeap = append(firedHeap, id) })
		case r < 0.70 && len(hCal) > 0:
			i := rng.Intn(len(hCal))
			sc, sh := hCal[i].Stop(), hHeap[i].Stop()
			if sc != sh {
				t.Fatalf("op %d: Stop disagrees: calendar %v, heap %v", op, sc, sh)
			}
		default:
			k := rng.Intn(4) + 1
			if bimodal {
				k = rng.Intn(2) + 1 // pops balance schedules: the population stands
			}
			for ; k > 0; k-- {
				stepBoth(op)
			}
		}
		if cal.Pending() != heap.Pending() {
			t.Fatalf("op %d: pending disagrees: calendar %d, heap %d", op, cal.Pending(), heap.Pending())
		}
	}
	cal.Run()
	heap.Run()

	if cal.Now() != heap.Now() {
		t.Fatalf("clocks disagree after drain: calendar %v, heap %v", cal.Now(), heap.Now())
	}
	if cal.Steps() != heap.Steps() {
		t.Fatalf("step counts disagree: calendar %d, heap %d", cal.Steps(), heap.Steps())
	}
	if len(firedCal) != len(firedHeap) {
		t.Fatalf("fired counts disagree: calendar %d, heap %d", len(firedCal), len(firedHeap))
	}
	for i := range firedCal {
		if firedCal[i] != firedHeap[i] {
			t.Fatalf("pop order diverges at event %d: calendar fired %d, heap fired %d", i, firedCal[i], firedHeap[i])
		}
	}
	if n := queuedInCalendar(cal); n != 0 {
		t.Fatalf("%d timers left in calendar structures after drain", n)
	}
	qs := cal.QueueStats()
	t.Logf("after the burst %d buckets; after drain: %+v", held, qs)
	if qs.FarPops == 0 {
		t.Error("no pop came through the far tier: overflow paths ran unchecked")
	}
	if held == calMinBuckets {
		t.Error("draining the burst shrank the ring to the minimum: far-tier growth never raised the floor")
	}
	if qs.Buckets != calMinBuckets {
		t.Errorf("%d buckets for an empty queue, 200000 sparse ops after the bimodal phase: the floor never came down", qs.Buckets)
	}
	if !shrunk {
		t.Error("the ring never shrank: the occupancy rule ran unchecked")
	}
}
