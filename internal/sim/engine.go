// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a priority queue of timed events and a simulated
// clock. Events scheduled for the same instant fire in the order they were
// scheduled, which makes runs bit-for-bit reproducible for a given seed.
// Simulated time is a float64 number of seconds, the same convention ns-2
// uses; all of the paper's scenarios run for at most a few thousand
// simulated seconds, far below the range where float64 granularity could
// reorder events.
//
// Two queue implementations sit behind the same (at, seq) total order:
// the default is a time-bucketed calendar queue (calqueue.go) with O(1)
// amortized insert and pop for the tick-dominated schedules the paper's
// scenarios produce; a hand-rolled, index-maintained 4-ary min-heap
// (HeapQueue) remains as the differential-testing oracle. Both recycle
// fired handle-less timers through a free list, so the steady-state
// packet path schedules events without allocating.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Time is a simulated timestamp or duration, in seconds.
type Time = float64

// Timer is a handle to a scheduled event. The zero value is not meaningful;
// timers are created by Engine.At and Engine.After (or reused through
// Engine.ResetAt, Engine.ResetAfter, and their *Func variants).
//
// Field order is deliberate: the hot comparison key (at, seq) shares the
// first cache line with the callback pair, the queue-membership links
// follow, and the two int32 positions plus the flag bytes pack the tail
// instead of padding three separate words.
type Timer struct {
	at  Time
	seq uint64
	// fnA/arg is the only callback form the queue executes: hot paths
	// schedule a pre-bound callback with a per-event argument and no
	// closure allocation, and the handle API (At/After/ResetAt) boxes its
	// func() through callFunc (funcs are pointer-shaped, so the boxing
	// does not allocate either).
	fnA func(any)
	arg any
	eng *Engine
	// next/prev link the timer into its calendar-queue bucket (an
	// intrusive doubly-linked list, so Stop unlinks in O(1) with no
	// per-bucket storage). Unused in heap mode.
	next, prev *Timer
	// index is the position in the heap (heap mode) or the sorted
	// overflow slice (calendar mode); for calendar bucket residents it is
	// pinned to 0. It is -1 exactly when the timer is not queued, in both
	// modes, so Pending stays one comparison.
	index int32
	// bkt is the calendar bucket index, bktOverflow for the sorted
	// far-future overflow, bktNone when not queued. Unused in heap mode.
	bkt     int32
	stopped bool
	pooled  bool // engine-owned (no external handle); recycle after firing
}

// callFunc adapts the handle API's func() callbacks to the single fnA
// execution path. A func value is pointer-shaped, so storing it in arg
// does not allocate.
func callFunc(a any) { a.(func())() }

// Stop cancels the timer and removes it from the engine's event queue, so
// a cancelled timer costs no memory and no queue traversal. Stopping an
// already-fired or already-stopped timer is a no-op. Stop reports whether
// the call prevented the event from firing.
func (t *Timer) Stop() bool {
	if t == nil || t.stopped || t.index == -1 {
		return false
	}
	t.stopped = true
	t.eng.stops++
	t.eng.removeTimer(t)
	return true
}

// Pending reports whether the timer is armed: scheduled and neither fired
// nor stopped. Callers that re-arm one logical timer through ResetAt use
// it as the "is a timer outstanding" predicate, since a reused handle is
// never nil.
func (t *Timer) Pending() bool { return t != nil && !t.stopped && t.index >= 0 }

// AuditHook observes scheduler operation for invariant checking (see
// internal/invariant). Both methods are called synchronously on the
// simulation goroutine; implementations must not mutate the engine.
type AuditHook interface {
	// OnSchedule is called for every accepted At/After with the validated
	// timestamp, before the event enters the queue.
	OnSchedule(now, at Time)
	// OnEvent is called immediately before an event executes. prev is the
	// clock value before this event advanced it; at and seq identify the
	// event popped from the queue.
	OnEvent(prev, at Time, seq uint64)
}

// ProbeHook observes executed events for state sampling (see
// internal/obs). It is the narrow half of AuditHook: a probe only
// watches the clock advance, so the engine does not dispatch schedule
// notifications to it. OnEvent returns the next simulated time the
// hook wants to observe; the engine skips the hook entirely until an
// event reaches that time, so a probe that samples on a cadence costs
// one float comparison per event between ticks, and a disabled probe
// (returning +Inf) costs that comparison forever. Called synchronously
// on the simulation goroutine; implementations must not mutate the
// engine.
type ProbeHook interface {
	// OnEvent is called immediately before an event executes, with the
	// same arguments as AuditHook.OnEvent. It returns the earliest
	// simulated time at which the hook needs to run again (+Inf for
	// never); the engine will not call it for events before that time.
	OnEvent(prev, at Time, seq uint64) Time
}

// QueueKind selects the event-queue implementation backing an Engine.
// Both kinds implement the identical (at, seq) total order — the
// differential tests in calqueue_test.go and the macro stream pins assert
// pop-order equality — so the choice affects performance only.
type QueueKind uint8

const (
	// CalendarQueue is what New uses: time-bucketed, O(1) amortized
	// insert/pop for tick-dominated schedules, sorted overflow for
	// far-future events.
	CalendarQueue QueueKind = iota
	// HeapQueue is the 4-ary min-heap: the differential oracle.
	HeapQueue
)

// Engine is a discrete-event scheduler. Create one with New; the zero
// value is not usable (its probe wake time must start at +Inf).
type Engine struct {
	now Time
	seq uint64
	// Exactly one of cq and events backs the queue: cq when the engine
	// was built with CalendarQueue (the default), the 4-ary min-heap
	// slice otherwise. Hot paths branch on cq != nil rather than going
	// through an interface so the common case stays devirtualized.
	cq     *calQueue
	events []*Timer // 4-ary min-heap ordered by (at, seq); heap mode only
	free   []*Timer // recycled timers with no external references
	rng    *rand.Rand
	nsteps uint64
	audit  AuditHook
	// dig, when non-nil, folds every executed event into a rolling
	// FNV-1a stream digest (see StreamDigest). Third hook slot, same
	// discipline as audit: one nil check per event when absent.
	dig   *StreamDigest
	probe ProbeHook // second hook slot: sampling, never validation
	// probeAt is the probe hook's requested wake time: events strictly
	// before it skip the hook with one comparison. +Inf when no probe is
	// installed (or the installed one asked never to be called again).
	probeAt Time
	// budget, when non-nil, bounds Run/RunUntil (see Budget). One pointer
	// check per run leg when absent.
	budget *budgetState

	// Scheduler counters, maintained unconditionally: plain integer
	// increments on paths that already touch the same cache lines, so
	// they are free at the scale the benchmarks resolve. nsteps is the
	// fired-event counter and predates these.
	scheduled uint64 // timers accepted by At/After/AtFunc/ResetAt
	rearms    uint64 // in-place ResetAt/ResetAfter reschedules
	stops     uint64 // Timer.Stop calls that cancelled a live timer

	seed int64 // what the first Rand call seeds rng with
}

// New returns an engine whose clock starts at zero and whose random
// number generator is seeded with seed. Two engines constructed with the
// same seed and fed the same schedule produce identical runs — including
// across queue kinds (see NewWithQueue).
func New(seed int64) *Engine {
	return NewWithQueue(seed, CalendarQueue)
}

// NewWithQueue is New with an explicit event-queue implementation. The
// event order is identical for both kinds; HeapQueue exists as the
// reference the differential tests and the benchmark construct.
func NewWithQueue(seed int64, kind QueueKind) *Engine {
	e := &Engine{seed: seed, probeAt: math.Inf(1)}
	var old *calQueue
	if Stocked() {
		if sp, _ := released.Get().(*spares); sp != nil {
			e.free, old = sp.free, sp.cq
			if kind == HeapQueue {
				e.events = sp.events
			}
			for _, tm := range e.free {
				tm.eng = e
			}
		}
	}
	if kind == CalendarQueue {
		e.cq = newCalQueue(calDefaultWidth, old)
	}
	return e
}

// spares is what a released engine leaves for the next one New builds:
// its timer free list, every timer zeroed by recycle, and its emptied
// event queue, calendar or heap.
type spares struct {
	free   []*Timer
	cq     *calQueue
	events []*Timer
}

// released holds released engines' spares. It is per-P, so a sweep
// worker building its next cell usually gets back what its last one left.
var released sync.Pool

// stocked says whether a release may have parked free lists in a
// sync.Pool since the last collection: an engine's spares here, a packet
// pool's lists and queue buffers in netem, RED generators in topology.
// A sync.Pool empties itself across collections, and its first use after
// one allocates per-P storage, so a program that never releases must not
// touch one: a release sets the flag and arms a sentinel the next
// collection frees, whose finalizer clears it again.
var stocked atomic.Bool

// Stocked reports whether a release may have parked free lists since the
// last collection; a constructor consults its package's pool only then.
func Stocked() bool { return stocked.Load() }

// MarkStocked records that a release just parked free lists in a pool.
func MarkStocked() {
	if !stocked.Swap(true) {
		runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) { stocked.Store(false) })
	}
}

// gcSentinel holds a pointer so that it is not served by the tiny
// allocator, whose objects may never be finalized.
type gcSentinel struct{ _ *int }

// Release hands the engine's timer free list and event-queue storage to
// an engine New builds later. Every pending event is unlinked unrun: an
// engine-owned timer (AtFunc, AfterFunc) passes its argument to reclaim
// and joins the parked free list; a handle timer (At, ResetAt, …) stays
// its holder's. Nothing may schedule on or run the engine afterwards. A
// sweep releases a cell's engines once their results are read
// (topology.Net.Release); a run that never calls it pays nothing for it.
func (e *Engine) Release(reclaim func(arg any)) {
	if e.free == nil && e.cq == nil && e.events == nil {
		return
	}
	drop := func(tm *Timer) {
		tm.next, tm.prev, tm.index, tm.bkt = nil, nil, -1, bktNone
		if tm.pooled {
			reclaim(tm.arg)
			e.recycle(tm)
		}
	}
	if e.cq != nil {
		e.cq.drain(drop)
	}
	for _, tm := range e.events {
		drop(tm)
	}
	clear(e.events)
	released.Put(&spares{free: e.free, cq: e.cq, events: e.events[:0]})
	e.free, e.cq, e.events = nil, nil, nil
	MarkStocked()
}

// HintTick sizes the calendar queue's buckets to the dominant event
// cadence dt (per-packet transmission time at the bottleneck, for the
// paper's topologies), so back-to-back packet events land in adjacent
// buckets instead of piling into one. The hint affects performance only,
// never event order; the width adapter still corrects a badly wrong hint.
// No-op in heap mode or for non-positive/non-finite dt.
func (e *Engine) HintTick(dt Time) {
	if e.cq == nil || !(dt > 0) || math.IsInf(dt, 0) {
		return
	}
	e.cq.rebuild(len(e.cq.b), dt)
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random number generator. Its
// 607-word state is seeded on the first call: the senders and queues
// draw from generators of their own, so most engines never pay for it.
func (e *Engine) Rand() *rand.Rand {
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(e.seed))
	}
	return e.rng
}

// Steps returns the number of events executed so far. It is useful for
// benchmarking and for loop guards in tests.
func (e *Engine) Steps() uint64 { return e.nsteps }

// Pending returns the exact number of live (non-stopped, not yet fired)
// timers. Stopped timers are removed from the queue immediately, so they
// never inflate this count.
func (e *Engine) Pending() int {
	if e.cq != nil {
		return e.cq.n
	}
	return len(e.events)
}

// QueueStats is the calendar queue's shape at one instant: enough to see
// a year (Buckets × Width) shorter than a delay the schedule uses, which
// shows as FarPops tracking Steps. All zero in heap mode.
type QueueStats struct {
	Buckets int    // ring size
	Width   Time   // bucket width, seconds
	FarLive int    // timers resident in the far tier (the sorted overflow)
	FarCap  int    // slots the far tier has allocated
	FarPops uint64 // pops and migrations that came through the far tier
}

// QueueStats returns the event queue's current shape.
func (e *Engine) QueueStats() QueueStats {
	cq := e.cq
	if cq == nil {
		return QueueStats{}
	}
	return QueueStats{
		Buckets: len(cq.b),
		Width:   cq.width,
		FarLive: len(cq.overflow) - cq.ohead,
		FarCap:  cap(cq.overflow),
		FarPops: cq.farPops,
	}
}

// SetAudit installs h as the engine's audit hook; nil disables auditing.
// The hook costs one nil check per scheduled and executed event when
// disabled.
func (e *Engine) SetAudit(h AuditHook) { e.audit = h }

// SetProbe installs h as the engine's observation hook; nil disables it.
// It is a second, independent slot so state sampling (internal/obs) can
// piggyback on the event stream without competing with the invariant
// auditor and, critically, without scheduling timers of its own:
// enabling a probe must not change the event sequence a seed produces.
// The hook is first consulted on the next executed event, after which
// its own return values pace it (see ProbeHook); install the hook in
// its final enabled/disabled state, since a hook that answered "never
// again" is not re-consulted.
func (e *Engine) SetProbe(h ProbeHook) {
	e.probe = h
	if h == nil {
		e.probeAt = math.Inf(1)
	} else {
		e.probeAt = math.Inf(-1)
	}
}

// Scheduled returns the number of timers accepted onto the queue since
// construction (At/After/AtFunc/AfterFunc and every ResetAt re-arm).
func (e *Engine) Scheduled() uint64 { return e.scheduled }

// Rearms returns the number of in-place ResetAt/ResetAfter reschedules.
func (e *Engine) Rearms() uint64 { return e.rearms }

// Stops returns the number of Timer.Stop calls that cancelled a live
// timer.
func (e *Engine) Stops() uint64 { return e.stops }

// validate panics on timestamps that would corrupt the schedule.
// Scheduling in the past (t < Now) always indicates a model bug, and
// silently clamping would corrupt causality. Non-finite times (NaN, ±Inf)
// panic on the same path: NaN in particular compares false against
// everything, so it would otherwise slip past the t < now guard and
// corrupt queue ordering for every later event. Both queue kinds share
// this guard, so rejection behavior is identical by construction.
func (e *Engine) validate(t Time) {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: scheduling event at non-finite time %v (now %v)", t, e.now))
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
}

// schedule stamps tm with the next sequence number and inserts it into
// the queue. The caller has already validated t and set the callback
// fields.
func (e *Engine) schedule(t Time, tm *Timer) {
	if e.audit != nil {
		e.audit.OnSchedule(e.now, t)
	}
	e.scheduled++
	e.seq++
	tm.at = t
	tm.seq = e.seq
	tm.stopped = false
	if e.cq != nil {
		e.cq.insert(tm)
	} else {
		e.push(tm)
	}
}

// removeTimer deletes a queued timer from whichever queue backs the
// engine, leaving tm.index == -1.
func (e *Engine) removeTimer(tm *Timer) {
	if e.cq != nil {
		e.cq.remove(tm)
	} else {
		e.remove(int(tm.index))
	}
}

// peekMin returns the earliest pending timer without removing it, or nil
// when the queue is empty.
func (e *Engine) peekMin() *Timer {
	if e.cq != nil {
		return e.cq.findMin()
	}
	if len(e.events) > 0 {
		return e.events[0]
	}
	return nil
}

// takeMin removes tm — which must be the head peekMin just returned —
// from the queue.
func (e *Engine) takeMin(tm *Timer) {
	if e.cq != nil {
		e.cq.popHead(tm)
	} else {
		e.popMin()
	}
}

// newTimer returns a zeroed timer, reusing a recycled one when available.
func (e *Engine) newTimer() *Timer {
	if n := len(e.free); n > 0 {
		tm := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return tm
	}
	return &Timer{eng: e, index: -1, bkt: bktNone}
}

// recycle returns an engine-owned timer to the free list. Callback and
// argument references are dropped so a parked timer cannot retain packets
// or closures.
func (e *Engine) recycle(tm *Timer) {
	tm.fnA = nil
	tm.arg = nil
	tm.pooled = false
	tm.stopped = false
	if e.free == nil {
		// One right-sized allocation instead of append's doubling walk;
		// the macro scenarios park a few dozen timers at peak.
		e.free = make([]*Timer, 0, 64)
	}
	e.free = append(e.free, tm)
}

// At schedules fn to run at absolute simulated time t and returns a
// handle that can Stop it. Scheduling in the past or at a non-finite
// time panics (see validate).
func (e *Engine) At(t Time, fn func()) *Timer {
	e.validate(t)
	tm := e.newTimer()
	tm.fnA = callFunc
	tm.arg = fn
	e.schedule(t, tm)
	return tm
}

// After schedules fn to run d seconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) *Timer {
	return e.At(e.now+float64(d), fn)
}

// AtFunc schedules fn(arg) at absolute time t without returning a
// handle. The timer is engine-owned: it cannot be stopped, and it is
// recycled the moment it fires, so a steady stream of AtFunc events
// allocates nothing once the free list is warm. fn should be a callback
// bound once at setup (a stored method value), not a fresh closure, or
// the allocation simply moves into the caller.
func (e *Engine) AtFunc(t Time, fn func(any), arg any) {
	e.validate(t)
	tm := e.newTimer()
	tm.fnA = fn
	tm.arg = arg
	tm.pooled = true
	e.schedule(t, tm)
}

// AfterFunc schedules fn(arg) d seconds from now without returning a
// handle; see AtFunc.
func (e *Engine) AfterFunc(d Time, fn func(any), arg any) {
	e.AtFunc(e.now+float64(d), fn, arg)
}

// ResetAt reschedules tm to run fn at absolute time t, reusing the timer
// object in place: if tm is still pending it is first removed from the
// queue (exactly like Stop), and either way the same handle is returned
// re-armed with a fresh sequence number. A nil tm (or one belonging to a
// different engine) allocates as At does. Because the object is reused
// only through the handle the caller already holds, recycling is safe by
// construction; callers that re-arm one logical timer per event (RTO
// timers, pacing loops) allocate nothing in steady state.
func (e *Engine) ResetAt(tm *Timer, t Time, fn func()) *Timer {
	return e.ResetAtFunc(tm, t, callFunc, fn)
}

// ResetAfter is ResetAt relative to the current time.
func (e *Engine) ResetAfter(tm *Timer, d Time, fn func()) *Timer {
	return e.ResetAtFunc(tm, e.now+float64(d), callFunc, fn)
}

// ResetAtFunc is ResetAt for the pre-bound fn(arg) callback form: one
// logical timer per call site, re-armed in place each event, zero
// steady-state allocation and — unlike AtFunc — no free-list round trip
// per event. The returned handle is caller-owned and never recycled by
// the engine. It consumes exactly one sequence number per call, the same
// as AtFunc, so swapping one for the other cannot change the event
// stream a seed produces.
func (e *Engine) ResetAtFunc(tm *Timer, t Time, fn func(any), arg any) *Timer {
	if tm == nil || tm.eng != e {
		e.validate(t)
		tm = e.newTimer()
		tm.fnA = fn
		tm.arg = arg
		e.schedule(t, tm)
		return tm
	}
	e.validate(t)
	e.rearms++
	if tm.index >= 0 {
		e.removeTimer(tm)
	}
	tm.fnA = fn
	tm.arg = arg
	e.schedule(t, tm)
	return tm
}

// ResetAfterFunc is ResetAtFunc relative to the current time.
func (e *Engine) ResetAfterFunc(tm *Timer, d Time, fn func(any), arg any) *Timer {
	return e.ResetAtFunc(tm, e.now+d, fn, arg)
}

// exec advances the clock to tm and runs its callback. tm has already
// been removed from the queue.
func (e *Engine) exec(tm *Timer) {
	prev := e.now
	e.now = tm.at
	e.nsteps++
	if e.audit != nil {
		e.audit.OnEvent(prev, tm.at, tm.seq)
	}
	if e.dig != nil {
		e.dig.fold(prev, tm.at, tm.seq)
	}
	if tm.at >= e.probeAt {
		e.probeAt = e.probe.OnEvent(prev, tm.at, tm.seq)
	}
	fn, arg := tm.fnA, tm.arg
	if tm.pooled {
		e.recycle(tm)
	}
	fn(arg)
}

// step executes the earliest pending event. It reports false when no
// runnable events remain. Stopped timers are removed from the queue by
// Stop itself, so every popped timer is live.
func (e *Engine) step() bool {
	tm := e.peekMin()
	if tm == nil {
		return false
	}
	e.takeMin(tm)
	e.exec(tm)
	return true
}

// Run executes events until none remain. Most scenarios instead use
// RunUntil with an explicit horizon because traffic sources reschedule
// themselves forever. An installed Budget (SetBudget) can stop the run
// early; check Halted afterwards.
func (e *Engine) Run() {
	if e.budget != nil {
		e.runBudgeted(math.Inf(1))
		return
	}
	for e.step() {
	}
}

// RunUntil executes events with timestamps <= t and then advances the
// clock to exactly t. Events scheduled at t run; events after t stay
// queued for a later call. If an installed Budget halts the run, the
// clock stays where the halt left it (check Halted).
func (e *Engine) RunUntil(t Time) {
	if e.budget != nil {
		if e.runBudgeted(t) && t > e.now {
			e.now = t
		}
		return
	}
	for {
		tm := e.peekMin()
		if tm == nil || tm.at > t {
			break
		}
		e.takeMin(tm)
		e.exec(tm)
	}
	if t > e.now {
		e.now = t
	}
}

// The fallback event heap is 4-ary: children of node i live at 4i+1..4i+4,
// the parent of node i at (i-1)/4. Ordering is (at, seq); seq is unique,
// so the order is total and pop order is exactly the FIFO-on-ties order
// the determinism guarantee requires. The calendar queue (calqueue.go)
// implements the identical order over time buckets.

// timerLess reports whether event a fires before event b.
func timerLess(a, b *Timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) push(tm *Timer) {
	tm.index = int32(len(e.events))
	e.events = append(e.events, tm)
	e.siftUp(int(tm.index))
}

// popMin removes and returns the earliest timer.
func (e *Engine) popMin() *Timer {
	h := e.events
	tm := h[0]
	n := len(h) - 1
	if n > 0 {
		h[0] = h[n]
		h[0].index = 0
	}
	h[n] = nil
	e.events = h[:n]
	if n > 1 {
		e.siftDown(0)
	}
	tm.index = -1
	return tm
}

// remove deletes the timer at heap position i, restoring heap order.
func (e *Engine) remove(i int) {
	h := e.events
	tm := h[i]
	n := len(h) - 1
	if i != n {
		h[i] = h[n]
		h[i].index = int32(i)
		h[n] = nil
		e.events = h[:n]
		if !e.siftDown(i) {
			e.siftUp(i)
		}
	} else {
		h[n] = nil
		e.events = h[:n]
	}
	tm.index = -1
}

// siftUp moves the node at i toward the root until its parent fires no
// later than it does.
func (e *Engine) siftUp(i int) {
	h := e.events
	tm := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !timerLess(tm, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = int32(i)
		i = p
	}
	h[i] = tm
	tm.index = int32(i)
}

// siftDown moves the node at i toward the leaves, swapping with its
// earliest child while that child fires first. It reports whether the
// node moved.
func (e *Engine) siftDown(i int) bool {
	h := e.events
	n := len(h)
	tm := h[i]
	start := i
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		// Find the earliest of up to four children.
		min := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if timerLess(h[j], h[min]) {
				min = j
			}
		}
		if !timerLess(h[min], tm) {
			break
		}
		h[i] = h[min]
		h[i].index = int32(i)
		i = min
	}
	h[i] = tm
	tm.index = int32(i)
	return i > start
}
