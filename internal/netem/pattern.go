package netem

import (
	"math"

	"slowcc/internal/sim"
)

// DropPattern scripts deterministic packet drops. The smoothness
// experiments (paper Figures 17-19) subject a single flow to a repeating,
// carefully designed loss pattern rather than to congestive loss.
type DropPattern interface {
	// Drop is consulted once per data packet arrival, in order, and
	// reports whether this packet should be dropped.
	Drop(now sim.Time) bool
}

// CountPattern drops one packet after every Intervals[i] successful
// arrivals, cycling through Intervals forever. For example
// {50,50,50,400,400,400} reproduces the paper's "three losses each after
// 50 packet arrivals, followed by three more losses each after 400
// packet arrivals".
type CountPattern struct {
	// Intervals is the cyclic list of inter-loss gaps, in packets.
	Intervals []int

	idx int
	cnt int
}

// Drop implements DropPattern.
func (c *CountPattern) Drop(_ sim.Time) bool {
	if len(c.Intervals) == 0 {
		return false
	}
	c.cnt++
	if c.cnt > c.Intervals[c.idx] {
		c.cnt = 0
		c.idx = (c.idx + 1) % len(c.Intervals)
		return true
	}
	return false
}

// TimedPhase is one phase of a TimedPattern: for Duration seconds, every
// Nth data packet is dropped.
type TimedPhase struct {
	Duration sim.Time
	// EveryNth drops one of every EveryNth packets (0 or negative
	// disables dropping in the phase).
	EveryNth int
}

// TimedPattern cycles through phases by wall-clock (simulated) time. It
// reproduces the paper's Figure 18 pattern: a six-second low-congestion
// phase dropping every 200th packet followed by a one-second
// heavy-congestion phase dropping every 4th packet.
type TimedPattern struct {
	// Phases is the cyclic phase schedule. Must be non-empty with
	// positive durations before the first Drop call.
	Phases []TimedPhase

	started  bool
	phaseEnd sim.Time
	idx      int
	cnt      int
}

// Drop implements DropPattern.
func (t *TimedPattern) Drop(now sim.Time) bool {
	if len(t.Phases) == 0 {
		return false
	}
	if !t.started {
		t.started = true
		t.phaseEnd = now + t.Phases[0].Duration
	}
	if now >= t.phaseEnd {
		// Fast-forward whole cycles in O(1): a gap of many cycles (an
		// idle flow resuming, or pathologically tiny phases) must not
		// cost one loop iteration per elapsed phase. Whole cycles leave
		// idx unchanged, so only the sub-cycle remainder walks phases.
		var cycle sim.Time
		for _, ph := range t.Phases {
			cycle += ph.Duration
		}
		if behind := now - t.phaseEnd; cycle > 0 && behind >= cycle {
			t.phaseEnd += float64(math.Floor(behind/cycle) * cycle)
		}
		for i := 0; now >= t.phaseEnd; i++ {
			t.idx = (t.idx + 1) % len(t.Phases)
			t.phaseEnd += t.Phases[t.idx].Duration
			t.cnt = 0
			if i >= 2*len(t.Phases) {
				// Duration underflows float addition at this magnitude
				// (phaseEnd += d no longer advances); re-anchor on now so
				// Drop always makes forward progress instead of spinning.
				t.phaseEnd = now + t.Phases[t.idx].Duration
				break
			}
		}
	}
	n := t.Phases[t.idx].EveryNth
	if n <= 0 {
		return false
	}
	t.cnt++
	if t.cnt >= n {
		t.cnt = 0
		return true
	}
	return false
}

// LossFilter applies a DropPattern to the data packets flowing through
// it, passing control packets (ACKs, feedback) untouched. It implements
// Handler so it can sit in front of any link or endpoint.
type LossFilter struct {
	// Pattern decides which data packets die.
	Pattern DropPattern
	// Next receives surviving packets.
	Next Handler
	// Now supplies simulated time for time-based patterns.
	Now func() sim.Time
	// Pool, when non-nil, receives the packets this filter kills.
	Pool *PacketPool

	// Arrivals and Drops count data packets seen and killed.
	Arrivals, Drops int64
}

// Handle implements Handler.
func (f *LossFilter) Handle(p *Packet) {
	if p.Kind != Data {
		f.Next.Handle(p)
		return
	}
	f.Arrivals++
	if f.Pattern != nil && f.Pattern.Drop(f.Now()) {
		f.Drops++
		f.Pool.Put(p)
		return
	}
	f.Next.Handle(p)
}
