package netem

import (
	"fmt"

	"slowcc/internal/sim"
)

// LinkStats counts traffic through a link and its queue.
type LinkStats struct {
	// Arrivals is the number of packets offered to the link.
	Arrivals int64
	// Drops is the number of packets the queue refused, plus packets
	// refused at the link entry while the link was down under DownDrop.
	Drops int64
	// DownDrops is the subset of Drops refused because the link was down
	// (DownDrop policy only; DownQueue losses surface as queue drops).
	DownDrops int64
	// Departures is the number of packets fully transmitted.
	Departures int64
	// Bytes is the number of payload bytes fully transmitted.
	Bytes int64
}

// DownPolicy selects what a down link does with arriving packets.
type DownPolicy uint8

const (
	// DownQueue (the default) keeps accepting arrivals into the queue
	// while the link is down; transmission stalls, so sustained outages
	// fill the buffer and shed load through the queue's own drop
	// discipline (RED or tail-drop) — the "queue then drop" behavior of
	// a router whose egress interface lost carrier.
	DownQueue DownPolicy = iota
	// DownDrop refuses every arrival at the link entry while down, as if
	// the path had been withdrawn: nothing is buffered across the outage.
	DownDrop
)

// TapOp identifies the point in a link's life a Tap is called at. An
// accepted packet yields TapEnqueue → TapTxStart → TapTxEnd → TapDeliver;
// a refused one (queue overflow, RED force-drop, or a down link under
// DownDrop) yields a single TapDrop instead.
type TapOp uint8

const (
	// TapEnqueue: the queue accepted the packet (any ECN mark the queue
	// applies is already on it).
	TapEnqueue TapOp = iota
	// TapTxStart: the packet reached the head of line and its first bit
	// went on the wire.
	TapTxStart
	// TapTxEnd: the last bit was serialized; propagation begins.
	TapTxEnd
	// TapDeliver: the packet is about to be handed to Dst.
	TapDeliver
	// TapDrop: the link refused the packet and has counted the drop. The
	// tap sees the packet before it returns to the pool and must not
	// retain it.
	TapDrop
	// TapSettled: an accounting transition is complete — after SetUp,
	// after each Send outcome, and after a transmission completion has
	// restarted the transmitter — so the conservation law
	//
	//	Arrivals == Drops + Departures + Q.Len() + (1 if transmitting)
	//
	// holds whenever it fires. It concerns the link, not a packet: p is
	// nil.
	TapSettled
)

// Tap is the one way anything watches a link: metrics, traces, journeys
// and the invariant auditor are each a Tap, attached
// with AddTap. A tap is called synchronously on the hot path at every
// TapOp point with the link it was attached to; it returns at once on
// the ops it does not care about, and must not schedule events, call
// back into the link or retain dropped packets.
type Tap func(l *Link, op TapOp, p *Packet, now sim.Time)

// Link models a store-and-forward link: packets wait in a Queue, are
// serialized at Rate bits per second, and arrive at the destination after
// a further propagation Delay. A link is unidirectional; bidirectional
// connectivity uses two Links.
type Link struct {
	eng *sim.Engine
	// Rate is the transmission rate in bits per second.
	Rate float64
	// Delay is the one-way propagation delay in seconds.
	Delay sim.Time
	// Q is the buffering discipline ahead of the transmitter.
	Q Queue
	// Dst receives packets Delay seconds after their last bit is sent.
	Dst Handler
	// Stats accumulates counters for the lifetime of the link.
	Stats LinkStats
	// Pool, when non-nil, receives packets the queue refuses. The link is
	// the component that discovers the drop, so it is the owner at that
	// moment and must release (taps observe the packet first; see
	// PacketPool for the ownership rules).
	Pool *PacketPool

	// taps is every watcher of the link, in registration order. Empty
	// (the default) costs one length check per capture point.
	taps []Tap
	// down and downPolicy hold the link's outage state (see SetDown).
	down       bool
	downPolicy DownPolicy
	// Transitions counts SetDown/SetUp state changes (flap visibility).
	Transitions int64

	// finishFn and deliverFn are the per-packet event callbacks, bound
	// once here so the hot path schedules them with the packet as the
	// argument instead of allocating a closure per packet.
	finishFn  func(any)
	deliverFn func(any)
	// txDone is the one persistent transmission-completion timer: during
	// a busy period finishTx chains directly into the next completion by
	// re-arming this timer in place (ResetAfterFunc), so back-to-back
	// transmissions cost no free-list round trip and no pooled-timer
	// zeroing per packet. It consumes exactly one sequence number per
	// re-arm — the same as the AfterFunc it replaced — so the event
	// stream is bit-identical; every tap point and counter still fires per
	// packet.
	txDone *sim.Timer
	// tx is the packet being serialized, nil while the transmitter is
	// idle. txDone's callback reads it, so no timer holds a packet
	// Release could not reach.
	tx *Packet
}

// NewLink returns a link transmitting at rate bits/s with the given
// one-way propagation delay, queue, and destination.
func NewLink(eng *sim.Engine, rate float64, delay sim.Time, q Queue, dst Handler) *Link {
	l := &Link{eng: eng, Rate: rate, Delay: delay, Q: q, Dst: dst}
	l.finishFn = func(any) { l.finishTx(l.tx) }
	l.deliverFn = func(a any) {
		p := a.(*Packet)
		if len(l.taps) != 0 {
			l.emit(TapDeliver, p, l.eng.Now())
		}
		l.Dst.Handle(p)
	}
	return l
}

// Release Puts the packet on the wire and every queued one into Pool,
// empties the queue and parks its buffer for a queue that grows later.
// The link must not carry packets afterwards. A queue that is neither a
// DropTail nor a RED is left alone.
func (l *Link) Release() {
	l.Pool.Put(l.tx)
	l.tx = nil
	switch q := l.Q.(type) {
	case *DropTail:
		q.q.release(l.Pool)
	case *RED:
		q.q.release(l.Pool)
	}
}

// AddTap attaches a watcher; taps are called in registration order.
func (l *Link) AddTap(t Tap) { l.taps = append(l.taps, t) }

// emit fans one tap point out. Call sites guard it with a length check so
// an unwatched link pays no call.
func (l *Link) emit(op TapOp, p *Packet, now sim.Time) {
	for _, t := range l.taps {
		t(l, op, p, now)
	}
}

// TxTime returns the serialization time of a packet of n bytes. A
// non-positive Rate panics: dividing by it would schedule the
// transmission completion at +Inf (or a negative time) and corrupt the
// event heap far from the root cause. Model an outage with SetDown
// instead of zeroing Rate.
func (l *Link) TxTime(n int) sim.Time {
	if l.Rate <= 0 {
		panic(fmt.Sprintf("netem: TxTime on link with non-positive rate %v bits/s (model outages with Link.SetDown, not Rate=0)", l.Rate))
	}
	return float64(n) * 8 / l.Rate
}

// SetDown takes the link down with the given arrival policy. A packet
// already being serialized finishes and propagates (its bits were on
// the wire); nothing further transmits until SetUp. Calling SetDown on
// a down link only updates the policy.
func (l *Link) SetDown(policy DownPolicy) {
	l.downPolicy = policy
	if l.down {
		return
	}
	l.down = true
	l.Transitions++
}

// SetUp restores the link. Queued packets resume transmitting
// immediately, in order. Calling SetUp on an up link is a no-op.
func (l *Link) SetUp() {
	if !l.down {
		return
	}
	l.down = false
	l.Transitions++
	if l.tx == nil {
		l.startTx()
	}
	if len(l.taps) != 0 {
		l.emit(TapSettled, nil, l.eng.Now())
	}
}

// Handle implements Handler: offering a packet to the link enqueues it
// (or drops it) and kicks the transmitter if idle. This lets links chain
// directly into one another.
func (l *Link) Handle(p *Packet) { l.Send(p) }

// Busy reports whether a packet is currently being serialized onto the
// wire. That packet has been dequeued but not yet counted as a
// departure, so conservation checks must account for it separately.
func (l *Link) Busy() bool { return l.tx != nil }

// Send offers p to the link and reports whether the queue accepted it.
// While the link is down under DownDrop, every arrival is refused at
// the entry (taps see a TapDrop); under DownQueue arrivals keep queueing
// and the queue's own discipline sheds the overflow.
func (l *Link) Send(p *Packet) bool {
	now := l.eng.Now()
	l.Stats.Arrivals++
	downDrop := l.down && l.downPolicy == DownDrop
	if downDrop || !l.Q.Enqueue(p, now) {
		l.Stats.Drops++
		if downDrop {
			l.Stats.DownDrops++
		}
		if len(l.taps) != 0 {
			l.emit(TapDrop, p, now)
			l.emit(TapSettled, nil, now)
		}
		l.Pool.Put(p)
		return false
	}
	if len(l.taps) != 0 {
		l.emit(TapEnqueue, p, now)
	}
	if l.tx == nil {
		l.startTx()
	}
	if len(l.taps) != 0 {
		l.emit(TapSettled, nil, now)
	}
	return true
}

// startTx pulls the next packet from the queue and schedules its
// transmission completion. A down link leaves the queue untouched; the
// transmitter restarts from SetUp.
func (l *Link) startTx() {
	if l.down {
		l.tx = nil
		return
	}
	p := l.Q.Dequeue(l.eng.Now())
	l.tx = p
	if p == nil {
		return
	}
	if len(l.taps) != 0 {
		l.emit(TapTxStart, p, l.eng.Now())
	}
	l.txDone = l.eng.ResetAfterFunc(l.txDone, l.TxTime(p.Size), l.finishFn, nil)
}

func (l *Link) finishTx(p *Packet) {
	l.Stats.Departures++
	l.Stats.Bytes += int64(p.Size)
	if len(l.taps) != 0 {
		l.emit(TapTxEnd, p, l.eng.Now())
	}
	// The delivery event must be scheduled before startTx schedules the
	// next transmission completion: sequence numbers are assigned in
	// schedule order, and determinism requires the same assignment order
	// as the original closure-based code. It waits in the engine's lane
	// for l.Delay (sim.Engine.AfterFixedFunc), not in the calendar: the
	// same time and sequence number AfterFunc would give it, so it fires
	// in the same (at, seq) place.
	l.eng.AfterFixedFunc(l.Delay, l.deliverFn, p)
	l.startTx()
	if len(l.taps) != 0 {
		l.emit(TapSettled, nil, l.eng.Now())
	}
}
