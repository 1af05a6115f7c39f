// Package cc defines the interfaces shared by every congestion control
// endpoint in the repository (TCP(b), RAP, binomial, TFRC, CBR), plus the
// generic per-packet acknowledgment receiver used by the window- and
// rate-based AIMD senders.
package cc

import (
	"fmt"

	"slowcc/internal/netem"
	"slowcc/internal/sim"
)

// DefaultPktSize is the data packet size in bytes used throughout the
// paper's scenarios (the ns-2 default).
const DefaultPktSize = 1000

// DefaultAckSize is the wire size of ACK and feedback packets.
const DefaultAckSize = 40

// Port is an endpoint's attachment to the network: where its packets
// go and the pool it allocates from and releases to. Every endpoint
// embeds one, so a topology wires any of them with one Attach call.
type Port struct {
	// Out is the path toward the peer.
	Out netem.Handler
	// Pool recycles the packets the endpoint consumes and supplies the
	// ones it sends; nil falls back to per-packet heap allocation.
	Pool *netem.PacketPool
}

// Attach points the endpoint at its outgoing path and packet pool.
func (p *Port) Attach(out netem.Handler, pool *netem.PacketPool) { p.Out, p.Pool = out, pool }

// Sender is a transport sender endpoint. It transmits data packets into
// the network and consumes the acknowledgment or feedback packets the
// network routes back to it (via Handle, inherited from netem.Handler).
type Sender interface {
	netem.Handler
	// Start begins transmission. It must be called at most once, from an
	// engine event or before the simulation runs.
	Start()
	// Stop ceases transmission permanently and cancels pending timers.
	Stop()
	// Stats returns the sender's transmission counters.
	Stats() *SenderStats
}

// SenderStats holds counters common to every sender implementation.
type SenderStats struct {
	// PktsSent and BytesSent count every transmission, including
	// retransmissions.
	PktsSent, BytesSent int64
	// Rtx counts retransmitted packets.
	Rtx int64
	// Timeouts counts retransmit-timer expirations (TCP-like senders) or
	// no-feedback-timer expirations (rate-based senders).
	Timeouts int64
	// LossEvents counts congestion events the sender reacted to.
	LossEvents int64
}

// ReceiverStats holds counters common to every receiver implementation.
type ReceiverStats struct {
	// PktsRecv and BytesRecv count every arriving data packet, including
	// duplicates.
	PktsRecv, BytesRecv int64
	// UniqueBytes counts first-time (goodput) bytes only.
	UniqueBytes int64
}

// AckReceiver is the receiver half used by TCP(b), RAP, and the binomial
// algorithms: it acknowledges every data packet with a cumulative ACK
// (no delayed ACKs, matching the paper's model) and echoes the packet's
// transmit timestamp so the sender can measure RTT per transmission.
type AckReceiver struct {
	Eng *sim.Engine
	Port
	Flow int

	R ReceiverStats

	next int64  // next expected in-order sequence
	ooo  seqSet // sequences received above next
	// Echo fields copied from the most recent data packet. Copies, not a
	// retained pointer: the packet is released back to the pool before
	// Handle returns, so holding it would read recycled memory.
	lastSeq    int64
	lastSentAt sim.Time
	ceSeen     bool // unechoed congestion-experienced mark
}

// NewAckReceiver returns a receiver for the given flow sending ACKs
// into out.
func NewAckReceiver(eng *sim.Engine, flow int, out netem.Handler) *AckReceiver {
	return &AckReceiver{Eng: eng, Port: Port{Out: out}, Flow: flow}
}

// Handle implements netem.Handler for incoming data packets. The
// receiver is the packet's final owner and releases it before returning.
func (r *AckReceiver) Handle(p *netem.Packet) {
	if p.Kind != netem.Data {
		r.Pool.Put(p)
		return
	}
	r.R.PktsRecv++
	r.R.BytesRecv += int64(p.Size)
	isNew := false
	switch {
	case p.Seq == r.next:
		isNew = true
		r.next++
		for r.ooo.take(r.next) {
			r.next++
		}
	case p.Seq > r.next:
		isNew = r.ooo.add(p.Seq, r.next)
	}
	if isNew {
		r.R.UniqueBytes += int64(p.Size)
	}
	if p.CE {
		r.ceSeen = true
	}
	r.lastSeq = p.Seq
	r.lastSentAt = p.SentAt
	r.Pool.Put(p)
	r.emitAck()
}

// emitAck sends a cumulative acknowledgment for the current state.
func (r *AckReceiver) emitAck() {
	ack := r.Pool.Get()
	ack.Flow = r.Flow
	ack.Kind = netem.Ack
	ack.Size = DefaultAckSize
	ack.SentAt = r.Eng.Now()
	ack.CumAck = r.next
	ack.AckSeq = r.lastSeq
	ack.Echo = r.lastSentAt
	ack.ECNEcho = r.ceSeen
	r.Out.Handle(ack)
	r.ceSeen = false
}

// Sink is the receiving end of a one-way flow (CBR, cross traffic): it
// counts what arrives and releases it. Nothing feeds back, so its Out
// stays nil.
type Sink struct {
	Port
	R ReceiverStats
}

// Handle implements netem.Handler; the sink is the packet's final owner.
func (s *Sink) Handle(p *netem.Packet) {
	s.R.PktsRecv++
	s.R.BytesRecv += int64(p.Size)
	s.Pool.Put(p)
}

// Stats returns the sink's counters.
func (s *Sink) Stats() *ReceiverStats { return &s.R }

// seqSet is the set of sequence numbers a receiver holds above its
// in-order point: one bit per sequence, in a power-of-two ring of words
// addressed by sequence number, so advancing the in-order point moves
// nothing and a bounded reordering window allocates nothing once the
// ring spans it. The ring covers the len(words) 64-sequence words from
// the one holding next; take clears every bit next passes, so a slot is
// empty again by the time a later word wraps onto it.
type seqSet struct{ words []uint64 }

// seqSetMaxWords bounds the ring at 2^30 sequences (128 MB of bits): a
// packet that far ahead of the in-order point is a sender bug, not
// reordering.
const seqSetMaxWords = 1 << 24

func (s *seqSet) slot(seq int64) (*uint64, uint64) {
	return &s.words[(seq>>6)&int64(len(s.words)-1)], 1 << (seq & 63)
}

// add inserts seq (> next) and reports whether it was absent.
func (s *seqSet) add(seq, next int64) bool {
	if need := seq>>6 - next>>6 + 1; need > int64(len(s.words)) {
		s.grow(need, next)
	}
	w, bit := s.slot(seq)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}

// take removes seq, the new in-order point, and reports whether it was
// present.
func (s *seqSet) take(seq int64) bool {
	if len(s.words) == 0 {
		return false
	}
	w, bit := s.slot(seq)
	if *w&bit == 0 {
		return false
	}
	*w &^= bit
	return true
}

// grow re-rings the set into the next power of two of at least need
// words, moving each word the old ring covered to its new slot.
func (s *seqSet) grow(need, next int64) {
	if need > seqSetMaxWords {
		panic(fmt.Sprintf("cc: data packet about %d sequences ahead of the in-order point %d", (need-1)<<6, next))
	}
	old, n := s.words, int64(16)
	for n < need {
		n *= 2
	}
	s.words = make([]uint64, n)
	for w := next >> 6; w < next>>6+int64(len(old)); w++ {
		s.words[w&(n-1)] = old[w&int64(len(old)-1)]
	}
}

// NextExpected returns the lowest sequence number not yet received
// in order.
func (r *AckReceiver) NextExpected() int64 { return r.next }

// Stats returns the receiver's counters.
func (r *AckReceiver) Stats() *ReceiverStats { return &r.R }

// WindowPolicy abstracts the window increase/decrease rules so one TCP
// transport implementation serves AIMD (TCP(b)) and the binomial
// algorithms (SQRT, IIAD).
type WindowPolicy interface {
	// Increase returns the additive window increment applied per new ACK
	// during congestion avoidance, given the current window in packets.
	Increase(cwnd float64) float64
	// Decrease returns the new window after one loss event.
	Decrease(cwnd float64) float64
}
