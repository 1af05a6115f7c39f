package sim

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"
)

// step executes the earliest pending event through the engine's one
// loop and reports whether there was one.
func (e *Engine) step() bool {
	n := e.nsteps
	e.run(math.Inf(1), 1)
	return e.nsteps > n
}

// peekMin returns the earliest queued timer, as the next step of run
// will see it.
func (e *Engine) peekMin() *Timer {
	if !e.headOK {
		e.head, e.headOK = e.queueMin(), true
	}
	return e.head
}

// A Timer fills one 64-byte cache line and the 64-byte allocation size
// class; a field that grows it moves every timer up a class.
func TestTimerIsOneCacheLine(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is sized for 64-bit pointers")
	}
	if got := unsafe.Sizeof(Timer{}); got != 64 {
		t.Fatalf("sim.Timer is %d bytes, want 64", got)
	}
}

// laneOracle drives one engine that sends fixed-delay events through
// AfterFixedFunc and a HeapQueue engine that sends the same schedule
// through AfterFunc. Every event is named by the id both sides assign
// in schedule order, so equal fired logs mean an equal (at, seq) pop
// order.
type laneOracle struct {
	t      *testing.T
	rng    *rand.Rand
	delays []Time // fixed delays, more than maxLanes of them, delays[0] == 0
	sides  [2]*laneSide
}

// laneSide is one engine of the pair. fired logs ids in pop order;
// lane[id] says whether the event went through a lane; at[id] is its
// time; owned holds the engine-owned events not yet fired.
type laneSide struct {
	e       *Engine
	lanes   bool // schedule fixed delays with AfterFixedFunc
	fireFn  func(any)
	nextID  int32
	fired   []int32
	viaLane map[int32]bool
	at      map[int32]Time
	owned   map[int32]bool
	handles []*Timer
}

func newLaneSide(e *Engine, lanes bool) *laneSide {
	s := &laneSide{e: e, lanes: lanes, viaLane: map[int32]bool{}, at: map[int32]Time{}, owned: map[int32]bool{}}
	s.fireFn = s.fire
	return s
}

// fire logs the event and, for every third id, chains a follow-up a
// fixed delay ahead, as a delivery chains the next send.
func (s *laneSide) fire(a any) {
	id := a.(int32)
	s.fired = append(s.fired, id)
	delete(s.owned, id)
	if id%3 == 0 {
		s.fixed([]Time{0, 0.021, 0.002}[id%9/3])
	}
}

func (s *laneSide) id(at Time) int32 {
	id := s.nextID
	s.nextID++
	s.at[id] = at
	return id
}

// fixed schedules an engine-owned event d ahead: through a lane on the
// lane side, through the queue on the oracle.
func (s *laneSide) fixed(d Time) {
	id := s.id(s.e.Now() + d)
	s.owned[id] = true
	if s.lanes {
		s.viaLane[id] = s.e.laneFor(d) != nil
		s.e.AfterFixedFunc(d, s.fireFn, id)
	} else {
		s.e.AfterFunc(d, s.fireFn, id)
	}
}

// queued schedules an engine-owned event d ahead through the queue on
// both sides: with a lane's d it ties with that lane's events.
func (s *laneSide) queued(d Time) {
	id := s.id(s.e.Now() + d)
	s.owned[id] = true
	s.e.AfterFunc(d, s.fireFn, id)
}

// rearm re-arms (or creates, for i == len) handle i d ahead.
func (s *laneSide) rearm(i int, d Time) {
	id := s.id(s.e.Now() + d)
	if i == len(s.handles) {
		s.handles = append(s.handles, nil)
	}
	s.handles[i] = s.e.ResetAtFunc(s.handles[i], s.e.Now()+d, s.fireFn, id)
}

// nextIsLane reports whether e's next event waits in a lane.
func nextIsLane(e *Engine) bool {
	tm, ln := e.peekMin(), e.front
	return ln != nil && (tm == nil || eventLess(ln.at, ln.seq, tm.at, tm.seq))
}

func (o *laneOracle) both(f func(s *laneSide)) {
	for _, s := range o.sides {
		f(s)
	}
	if a, b := o.sides[0].e.Pending(), o.sides[1].e.Pending(); a != b {
		o.t.Fatalf("pending disagrees: lanes %d, heap oracle %d", a, b)
	}
	if a, b := o.sides[0].e.Now(), o.sides[1].e.Now(); a != b {
		o.t.Fatalf("clocks disagree: lanes %v, heap oracle %v", a, b)
	}
}

// A randomized mix — more fixed delays than lanes, one of them zero;
// queue timers at exactly a lane's times; Stop and ResetAt on handles;
// RunUntil horizons on a lane front's own time; and budgets that halt
// with lane events due — pops in the same (at, seq) order as the
// oracle. Release then reclaims every engine-owned argument still
// pending, lane or queue, exactly once, and the next engine's lanes
// serve as many events as the released rings held without allocating.
func TestLanesMatchHeapOracle(t *testing.T) {
	for _, kind := range []QueueKind{CalendarQueue, HeapQueue} {
		t.Run(map[QueueKind]string{CalendarQueue: "calendar", HeapQueue: "heap"}[kind], func(t *testing.T) {
			testLanesMatchHeapOracle(t, kind)
		})
	}
}

func testLanesMatchHeapOracle(t *testing.T, kind QueueKind) {
	const ops = 200_000
	o := &laneOracle{t: t, rng: rand.New(rand.NewSource(5)),
		delays: []Time{0, 0.021, 0.002, 3e-4, 0.05, 1e-5, 0.1, 0.007, 0.0125, 0.3}}
	if len(o.delays) <= maxLanes {
		t.Fatalf("%d delays do not outnumber the %d lanes", len(o.delays), maxLanes)
	}
	o.sides = [2]*laneSide{newLaneSide(NewWithQueue(1, kind), true), newLaneSide(NewWithQueue(1, HeapQueue), false)}
	lanes, oracle := o.sides[0], o.sides[1]
	rng := o.rng
	pick := func() Time {
		// The first four delays carry most of the traffic.
		if rng.Intn(8) > 0 {
			return o.delays[rng.Intn(4)]
		}
		return o.delays[rng.Intn(len(o.delays))]
	}
	halts := 0
	for op := 0; op < ops; op++ {
		switch r := rng.Float64(); {
		case r < 0.35:
			d := pick()
			o.both(func(s *laneSide) { s.fixed(d) })
		case r < 0.45:
			d := pick()
			o.both(func(s *laneSide) { s.queued(d) })
		case r < 0.55:
			i, d := rng.Intn(len(lanes.handles)+1), rng.Float64()*0.03
			if rng.Intn(4) == 0 {
				d = pick() // a handle due with a lane's events
			}
			o.both(func(s *laneSide) { s.rearm(i, d) })
		case r < 0.60 && len(lanes.handles) > 0:
			i := rng.Intn(len(lanes.handles))
			if a, b := lanes.handles[i].Stop(), oracle.handles[i].Stop(); a != b {
				t.Fatalf("op %d: Stop disagrees: lanes %v, heap oracle %v", op, a, b)
			}
		case r < 0.70:
			// A horizon on a lane front's own time runs that event and
			// leaves the rest of its lane queued.
			h := lanes.e.Now() + rng.Float64()*0.01
			if ln := lanes.e.front; ln != nil && rng.Intn(2) == 0 {
				h = ln.at
			}
			o.both(func(s *laneSide) { s.e.RunUntil(h) })
		case r < 0.72:
			n := uint64(1 + rng.Intn(20))
			var reasons [2]HaltReason
			for k, s := range o.sides {
				s.e.SetBudget(&Budget{MaxEvents: n})
				s.e.RunUntil(s.e.Now() + 0.05)
				if h := s.e.Halted(); h != nil {
					reasons[k] = HaltReason{Cause: h.Cause, Events: h.Events, SimTime: h.SimTime}
				}
				s.e.SetBudget(nil)
			}
			if reasons[0] != reasons[1] {
				t.Fatalf("op %d: budgets halted differently: lanes %+v, heap oracle %+v", op, reasons[0], reasons[1])
			}
			if reasons[0].Cause == HaltEvents && nextIsLane(lanes.e) {
				halts++
			}
			o.both(func(*laneSide) {})
		default:
			k := 1 + rng.Intn(3)
			o.both(func(s *laneSide) {
				for range k {
					s.e.step()
				}
			})
		}
	}

	if len(lanes.fired) != len(oracle.fired) {
		t.Fatalf("fired %d events through lanes, %d on the heap oracle", len(lanes.fired), len(oracle.fired))
	}
	ties := 0
	for i, id := range lanes.fired {
		if id != oracle.fired[i] {
			t.Fatalf("pop order diverges at event %d: lanes fired %d, heap oracle %d", i, id, oracle.fired[i])
		}
		if i > 0 {
			prev := lanes.fired[i-1]
			if lanes.at[prev] == lanes.at[id] && lanes.viaLane[prev] != lanes.viaLane[id] {
				ties++
			}
		}
	}
	qs := lanes.e.QueueStats()
	t.Logf("%d events, %d lane/queue ties, %d budget halts with a lane due; %+v", len(lanes.fired), ties, halts, qs)
	if qs.Lanes != maxLanes || qs.LaneLive == 0 {
		t.Fatalf("lanes %d, %d live: want all %d lanes open and events pending in them", qs.Lanes, qs.LaneLive, maxLanes)
	}
	if ties == 0 || halts == 0 {
		t.Fatalf("%d equal-time lane/queue neighbours, %d budget halts with a lane due: the mix missed a case", ties, halts)
	}

	// Release reclaims every pending engine-owned argument once. One P
	// and no collection, so the spares reach the next engine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var bufs [maxLanes][]laneEvent
	var ds [maxLanes]Time
	for i := range lanes.e.lanes {
		bufs[i], ds[i] = lanes.e.lanes[i].buf, lanes.e.lanes[i].d
	}
	for released.Get() != nil { // spares other tests parked
	}
	seen := map[int32]int{}
	lanes.e.Release(func(a any) { seen[a.(int32)]++ })
	for id := range lanes.owned {
		if seen[id] != 1 {
			t.Fatalf("reclaim saw pending event %d %d times, want once", id, seen[id])
		}
	}
	if len(seen) != len(lanes.owned) {
		t.Fatalf("reclaim saw %d arguments, want the %d pending engine-owned events'", len(seen), len(lanes.owned))
	}
	for _, b := range bufs {
		for _, ev := range b {
			if ev.fn != nil || ev.arg != nil {
				t.Fatal("a released lane ring still references a callback or its argument")
			}
		}
	}

	// The next engine fills each inherited ring without allocating.
	next := NewWithQueue(2, kind)
	if next.lanes[0].buf == nil && raceDetector() {
		t.Skip("the race detector's sync.Pool dropped the spares")
	}
	fire := func(any) {}
	if got := mallocs(func() {
		for i, d := range ds {
			for range len(bufs[i]) {
				next.AfterFixedFunc(d, fire, nil)
			}
		}
	}); got != 0 {
		t.Fatalf("filling the inherited lane rings allocated %d objects", got)
	}
	next.Run()
}
