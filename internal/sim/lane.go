package sim

// Fixed-delay lanes. Half of a packet-level run's events are link
// deliveries, each scheduled a link's constant propagation delay ahead
// (Link.finishTx). AfterFixedFunc keeps the events of each distinct
// delay d in a FIFO ring of inline {at, seq, fn, arg} entries, and such
// an event never enters the queue. The exactness argument (DESIGN.md
// §13.5):
//
//  1. A lane is (at, seq)-sorted by construction. Its events' times are
//     now+d for one d, computed exactly as AfterFunc computes them; the
//     clock never goes back; float addition of one d is monotone
//     (a <= b implies a+d <= b+d under round-to-nearest); and sequence
//     numbers only grow. So a lane's first event is its minimum.
//  2. The next event overall is therefore the (at, seq)-least of the
//     queue's minimum and the lanes' first events, compared with the
//     same order the heap uses; Engine.run takes whichever it is.
//
// The engine keeps the lane whose first event is the earliest (front)
// and the queue's minimum (head) cached, so a step costs one comparison
// between them. A push changes the front only when it lands in an empty
// lane; a pop rescans the handful of lanes.

// maxLanes bounds the distinct delays that get a lane; a delay past it
// goes through the queue. The paper's topologies use two (a bottleneck
// hop's and an access link's), the RTT-fairness ones three.
const maxLanes = 8

// laneEvent is one pending lane event, stored inline in the ring.
type laneEvent struct {
	at  Time
	seq uint64
	fn  func(any)
	arg any
}

// lane is the ring of one delay's pending events, oldest at buf[head].
// at and seq copy the oldest event's key while the lane is not empty, so
// comparing lane fronts reads the lanes and not their rings.
type lane struct {
	at   Time
	seq  uint64
	buf  []laneEvent // len is zero or a power of two
	head int
	n    int
	d    Time
}

// eventLess is the engine's total order: time, then sequence number.
func eventLess(at Time, seq uint64, bat Time, bseq uint64) bool {
	if at != bat {
		return at < bat
	}
	return seq < bseq
}

// push appends ev, which is no earlier than any event in the lane.
func (ln *lane) push(ev laneEvent) {
	if ln.n == len(ln.buf) {
		buf := make([]laneEvent, max(64, 2*len(ln.buf)))
		k := copy(buf, ln.buf[ln.head:])
		copy(buf[k:], ln.buf[:ln.head])
		ln.buf, ln.head = buf, 0
	}
	ln.buf[(ln.head+ln.n)&(len(ln.buf)-1)] = ev
	if ln.n == 0 {
		ln.at, ln.seq = ev.at, ev.seq
	}
	ln.n++
}

// pop removes the earliest event and returns its callback, clearing
// its slot so the ring holds no reference to the argument.
func (ln *lane) pop() (fn func(any), arg any) {
	slot := &ln.buf[ln.head]
	fn, arg = slot.fn, slot.arg
	slot.fn, slot.arg = nil, nil
	ln.head = (ln.head + 1) & (len(ln.buf) - 1)
	if ln.n--; ln.n > 0 {
		next := &ln.buf[ln.head]
		ln.at, ln.seq = next.at, next.seq
	}
	return fn, arg
}

// drain pops every pending event unrun, handing its argument to
// reclaim, and returns the emptied ring for a later engine.
func (ln *lane) drain(reclaim func(any)) []laneEvent {
	for ln.n > 0 {
		_, arg := ln.pop()
		reclaim(arg)
	}
	return ln.buf
}

// laneFor returns d's lane, opening one if there is room, or nil when
// maxLanes delays already have one.
func (e *Engine) laneFor(d Time) *lane {
	for i := range e.nlanes {
		if e.lanes[i].d == d {
			return &e.lanes[i]
		}
	}
	if e.nlanes == maxLanes {
		return nil
	}
	ln := &e.lanes[e.nlanes]
	ln.d = d
	e.nlanes++
	return ln
}

// earliestLane returns the lane whose first event is the earliest, nil
// when every lane is empty.
func (e *Engine) earliestLane() *lane {
	var best *lane
	for i := range e.nlanes {
		if ln := &e.lanes[i]; ln.n > 0 && (best == nil || eventLess(ln.at, ln.seq, best.at, best.seq)) {
			best = ln
		}
	}
	return best
}
