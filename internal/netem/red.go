package netem

import (
	"math"
	"math/rand"

	"slowcc/internal/obs/probe"
	"slowcc/internal/sim"
)

// RED is Random Early Detection queue management (Floyd & Jacobson 1993),
// operating in packet mode: the average queue size is measured in packets,
// matching the paper's configuration where thresholds are expressed in
// multiples of the bandwidth-delay product with fixed-size packets.
//
// The drop probability ramps linearly from 0 at MinThresh to MaxP at
// MaxThresh; above MaxThresh every arrival is dropped (the original,
// non-gentle RED the paper's era of ns-2 defaulted to). Between marks the
// count-based correction spreads drops uniformly rather than letting them
// cluster geometrically.
type RED struct {
	// MinThresh and MaxThresh are the average-queue thresholds in packets.
	MinThresh, MaxThresh float64
	// MaxP is the drop probability at MaxThresh.
	MaxP float64
	// Weight is the EWMA gain for the average queue size.
	Weight float64
	// Cap is the physical queue capacity in packets; arrivals beyond it
	// are dropped regardless of the average.
	Cap int
	// MeanPktTime is the transmission time of a typical packet on the
	// outgoing link, used to age the average across idle periods.
	MeanPktTime sim.Time
	// MarkECN makes the queue set the CE bit on ECN-capable packets
	// instead of dropping them (RFC 2481 behavior). Packets without ECT
	// are still dropped, as are overflows of the physical buffer.
	MarkECN bool

	rng       *rand.Rand
	q         fifo
	avg       float64
	count     int
	idleSince sim.Time
	idle      bool

	// EarlyDrops counts drops taken by the RED algorithm; ForcedDrops
	// counts overflows of the physical buffer. Their sum is the total
	// number of packets this queue refused. Marks counts CE marks set
	// in place of early drops when MarkECN is enabled.
	EarlyDrops, ForcedDrops, Marks int64
}

// NewRED returns a RED queue with the given thresholds (in packets),
// physical capacity, and the transmission time of one packet on the
// attached link. The remaining parameters take the classic defaults
// (MaxP = 0.1, Weight = 0.002).
func NewRED(minTh, maxTh float64, capPkts int, meanPktTime sim.Time, rng *rand.Rand) *RED {
	return &RED{
		MinThresh:   minTh,
		MaxThresh:   maxTh,
		MaxP:        0.1,
		Weight:      0.002,
		Cap:         capPkts,
		MeanPktTime: meanPktTime,
		rng:         rng,
		idle:        true,
		count:       -1,
	}
}

// Avg returns the current EWMA of the queue size, in packets.
func (r *RED) Avg() float64 { return r.avg }

// DropProb returns the marking probability pb implied by the current
// average queue size: 0 below MinThresh, the linear ramp to MaxP at
// MaxThresh, and 1 in the forced-drop region. It reads the same state
// Enqueue uses but consumes no randomness, so sampling it cannot
// perturb a run.
func (r *RED) DropProb() float64 {
	switch {
	case r.avg < r.MinThresh:
		return 0
	case r.avg < r.MaxThresh:
		return r.MaxP * (r.avg - r.MinThresh) / (r.MaxThresh - r.MinThresh)
	default:
		return 1
	}
}

// ProbeVars implements probe.Provider: the EWMA average queue size, the
// instantaneous queue length, and the current drop probability — the
// three internal signals RED's dynamics are described by.
func (r *RED) ProbeVars() []probe.Var {
	return []probe.Var{
		{Name: "avg", Read: r.Avg},
		{Name: "qlen", Read: func() float64 { return float64(r.q.n) }},
		{Name: "drop_prob", Read: r.DropProb},
	}
}

// Enqueue implements Queue.
func (r *RED) Enqueue(p *Packet, now sim.Time) bool {
	r.updateAvg(now)
	// A full physical buffer forces the drop no matter what the average
	// says, so it must be checked before the mark/early-drop logic runs:
	// otherwise an ECN-capable packet can be CE-marked by notify and then
	// force-dropped anyway, inflating Marks (and mutating a packet that
	// never transits) while also consuming a random draw that shifts the
	// drop sequence for every later arrival.
	if r.q.n >= r.Cap {
		r.count = 0
		r.ForcedDrops++
		return false
	}
	switch {
	case r.avg < r.MinThresh:
		r.count = -1
	case r.avg >= r.MaxThresh:
		r.count = 0
		if !r.notify(p) {
			r.EarlyDrops++
			return false
		}
	default:
		r.count++
		pb := r.MaxP * (r.avg - r.MinThresh) / (r.MaxThresh - r.MinThresh)
		pa := 1.0
		if float64(r.count)*pb < 1 {
			pa = pb / (1 - float64(float64(r.count)*pb))
		}
		if r.rng.Float64() < pa {
			r.count = 0
			if !r.notify(p) {
				r.EarlyDrops++
				return false
			}
		}
	}
	r.q.push(p)
	return true
}

// notify delivers a congestion signal for p without dropping it when
// possible: with ECN marking enabled and an ECN-capable packet it sets
// CE and reports true (keep the packet); otherwise it reports false
// (drop it).
func (r *RED) notify(p *Packet) bool {
	if r.MarkECN && p.ECT {
		p.CE = true
		r.Marks++
		return true
	}
	return false
}

// updateAvg folds the instantaneous queue size into the EWMA, crediting
// idle time as a run of virtual empty samples.
func (r *RED) updateAvg(now sim.Time) {
	if r.idle {
		// The queue has been empty since idleSince; pretend m small
		// packets departed in that span. A zero average (every uncongested
		// hop, the whole ACK path) stays +0 under any decay factor — Pow
		// is finite in [0, 1] for Weight in [0, 1] and m >= 0 — so it
		// skips the call.
		if r.avg != 0 {
			m := 0.0
			if r.MeanPktTime > 0 {
				m = (now - r.idleSince) / r.MeanPktTime
			}
			r.avg *= math.Pow(1-r.Weight, m)
		}
		r.idle = false
	} else {
		r.avg = float64((1-r.Weight)*r.avg) + float64(r.Weight*float64(r.q.n))
	}
}

// Dequeue implements Queue.
func (r *RED) Dequeue(now sim.Time) *Packet {
	p := r.q.pop()
	if r.q.n == 0 {
		r.idle = true
		r.idleSince = now
	}
	return p
}

// Len implements Queue.
func (r *RED) Len() int { return r.q.n }

// Bytes implements Queue.
func (r *RED) Bytes() int { return r.q.bytes }
