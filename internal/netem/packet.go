// Package netem models the network substrate: packets, queues (DropTail
// and RED), and links with finite bandwidth and propagation delay. It is
// the from-scratch replacement for the parts of ns-2 the paper relies on.
package netem

import "slowcc/internal/sim"

// Packet kinds. Data carries payload bytes; Ack and Feedback are the
// small control packets generated by receivers.
const (
	Data int = iota
	Ack
	Feedback
)

// Packet is a simulated packet. Packets are allocated per transmission
// and owned by whichever component currently holds them; they are never
// shared between flows.
type Packet struct {
	// Flow identifies the flow the packet belongs to. The topology uses
	// it to route the packet to the right endpoint.
	Flow int
	// Kind is Data, Ack, or Feedback.
	Kind int
	// Seq is the sequence number of a data packet, in packets, starting
	// at 0. For a retransmission Seq repeats an earlier value.
	Seq int64
	// Size is the wire size in bytes, used for serialization time and
	// byte counters.
	Size int
	// SentAt is the simulated time the packet left its origin endpoint.
	// Echoed back in acknowledgments so senders can measure RTT without
	// keeping per-packet state.
	SentAt sim.Time
	// CumAck is the highest in-order sequence received plus one
	// (i.e., the next sequence the receiver expects), set on Ack packets.
	CumAck int64
	// AckSeq is the sequence number of the specific data packet that
	// triggered this Ack. It lets senders detect holes directly.
	AckSeq int64
	// Echo carries the SentAt timestamp of the packet being acknowledged.
	Echo sim.Time
	// SenderRTT is the sender's current RTT estimate, stamped on data
	// packets. TFRC receivers need it to coalesce losses into loss events.
	SenderRTT sim.Time
	// FB carries TFRC receiver feedback; nil on other packets. It sits
	// before the flag bytes so the one-byte fields pack into a
	// single word instead of padding out a second one (96 → 88 bytes,
	// one packet per 64-byte cache line pair instead of straddling a
	// third line).
	FB *TFRCFeedback
	// ECT marks the packet as ECN-capable transport: a marking queue
	// sets CE on it instead of dropping it.
	ECT bool
	// CE is the congestion-experienced mark set by an ECN queue.
	CE bool
	// ECNEcho, set on Ack packets, echoes a CE mark back to the sender.
	ECNEcho bool

	// pooled marks a packet currently parked on a PacketPool free list.
	// It exists only to catch double-release bugs, which would otherwise
	// surface as impossibly confusing aliasing between two live packets.
	pooled bool
	// inherited marks a parked packet a released pool handed on (see
	// PacketPool.Release).
	inherited bool
}

// TFRCFeedback is the per-RTT report a TFRC receiver returns to its
// sender, per the TFRC specification.
type TFRCFeedback struct {
	// LossEventRate is the receiver's current loss event rate estimate
	// (the inverse of the weighted average loss interval). Zero means no
	// loss has been observed yet.
	LossEventRate float64
	// RecvRate is the rate at which data arrived at the receiver over the
	// last round-trip time, in bytes per second.
	RecvRate float64
	// LossSeen reports whether a new loss event began since the previous
	// feedback. The conservative (self-clocking) option keys off it.
	LossSeen bool
}

// Handler consumes packets. Links deliver to a Handler; endpoints and
// routers implement it.
type Handler interface {
	Handle(p *Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(p *Packet)

// Handle calls f(p).
func (f HandlerFunc) Handle(p *Packet) { f(p) }
