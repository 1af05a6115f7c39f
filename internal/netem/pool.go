package netem

import (
	"sync"

	"slowcc/internal/sim"
)

// PacketPool recycles Packet (and TFRCFeedback) objects so the
// steady-state packet path allocates nothing. A pool belongs to one
// simulation (one engine goroutine) and is not safe for concurrent use —
// sweep drivers that run engines in parallel give each scenario its own
// pool, exactly as each owns its own engine.
//
// Ownership rules (see DESIGN.md §8):
//
//   - The transmitting endpoint allocates with Get (or NewFeedback) and
//     hands the packet to the network via Handler.Handle. From then on
//     exactly one component owns the packet at any time.
//   - Ownership transfers with the packet: a queue that accepts it owns
//     it until Dequeue, a link owns it through serialization and
//     propagation.
//   - Whoever terminates the packet's journey releases it with Put:
//     the final Handler (an endpoint or sink) after consuming its
//     fields, the Link on a queue refusal, the LossFilter on a scripted
//     drop, and the topology demux for unrouted flows.
//   - After Put the packet must not be touched; Put zeroes every field
//     (and recycles an attached TFRCFeedback) so a reused packet is
//     bit-identical to a freshly allocated one. That zeroing is what
//     keeps pooled runs byte-for-byte identical to unpooled runs.
//
// A nil *PacketPool is valid everywhere one is accepted: Get falls back
// to the heap allocator and Put becomes a no-op, which is exactly the
// pre-pool behavior (endpoint unit tests rely on this).
//
// A pool from NewPacketPool starts with the free lists a released pool
// left (Release), so a sweep's next cell does not grow them from empty.
type PacketPool struct {
	free   []*Packet
	freeFB []*TFRCFeedback

	// Gets and Puts count pool traffic (including fallback allocations
	// when the free list is empty); Gets - Puts is the number of
	// packets currently owned by the simulation. Tests use the balance to
	// prove every packet is released exactly once. Reuses counts the
	// subset of Gets served by a packet this pool's own Put released
	// (Gets - Reuses is the number of heap allocations, counting an
	// inherited packet as one), and GuardTrips counts double-release
	// attempts caught by Put's ownership guard — it is incremented
	// before the panic, so a recovered panic still finds it counted.
	Gets, Puts, Reuses, GuardTrips int64
}

// NewPacketPool returns an empty pool stocked with the free packets and
// feedbacks of a pool released earlier in the process, when there is
// one.
func NewPacketPool() *PacketPool {
	pp := &PacketPool{}
	if sim.Stocked() {
		if l, _ := releasedPools.Get().(*freeLists); l != nil {
			pp.free, pp.freeFB = l.free, l.freeFB
		}
	}
	return pp
}

// freeLists is what a released pool leaves for the next NewPacketPool:
// packets and feedbacks Put has already zeroed.
type freeLists struct {
	free   []*Packet
	freeFB []*TFRCFeedback
}

// releasedPools holds released pools' free lists.
var releasedPools sync.Pool

// Release hands the pool's free lists to a pool NewPacketPool builds
// later. Each free packet is marked inherited, so that a Get it serves
// there counts as the heap allocation it stands in for: a pool's
// counters stay a function of its own traffic. Packets still out are not
// reached: topology.Net.Release Puts every one first. Release on a nil
// pool does nothing.
func (pp *PacketPool) Release() {
	if pp == nil || (pp.free == nil && pp.freeFB == nil) {
		return
	}
	for _, p := range pp.free {
		p.inherited = true
	}
	releasedPools.Put(&freeLists{free: pp.free, freeFB: pp.freeFB})
	pp.free, pp.freeFB = nil, nil
	sim.MarkStocked()
}

// Get returns a zeroed packet, reusing a released one when available.
func (pp *PacketPool) Get() *Packet {
	if pp == nil {
		return &Packet{}
	}
	pp.Gets++
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		if !p.inherited {
			pp.Reuses++
		}
		p.pooled, p.inherited = false, false
		return p
	}
	return &Packet{}
}

// Put releases p back to the pool. Every field is zeroed so stale state
// cannot leak into the packet's next life; an attached TFRCFeedback is
// recycled separately. Put(nil) and Put on a nil pool are no-ops.
func (pp *PacketPool) Put(p *Packet) {
	if pp == nil || p == nil {
		return
	}
	if p.pooled {
		pp.GuardTrips++
		panic("netem: packet released twice")
	}
	pp.Puts++
	if fb := p.FB; fb != nil {
		*fb = TFRCFeedback{}
		pp.freeFB = append(pp.freeFB, fb)
	}
	*p = Packet{pooled: true}
	pp.free = append(pp.free, p)
}

// NewFeedback returns a zeroed TFRCFeedback, reusing a recycled one when
// available. The feedback is released automatically when the packet
// carrying it is Put.
func (pp *PacketPool) NewFeedback() *TFRCFeedback {
	if pp == nil {
		return &TFRCFeedback{}
	}
	if n := len(pp.freeFB); n > 0 {
		fb := pp.freeFB[n-1]
		pp.freeFB[n-1] = nil
		pp.freeFB = pp.freeFB[:n-1]
		return fb
	}
	return &TFRCFeedback{}
}

// Sink is a terminal Handler that releases every packet it receives —
// the far end of one-way traffic whose delivery contents do not matter.
type Sink struct {
	Pool *PacketPool
}

// Handle implements Handler.
func (s Sink) Handle(p *Packet) { s.Pool.Put(p) }
