// Package tcp implements a window-based TCP sender with the mechanisms
// the paper identifies as essential to TCP's dynamic behavior: ACK
// self-clocking, slow-start, fast retransmit/recovery, and retransmit
// timeouts with exponential backoff. The window increase/decrease rules
// are pluggable (cc.WindowPolicy), so the same transport runs TCP(b)
// AIMD variants and the binomial algorithms (SQRT, IIAD).
package tcp

import (
	"math"

	"slowcc/internal/cc"
	"slowcc/internal/netem"
	"slowcc/internal/obs/probe"
	"slowcc/internal/sim"
	"slowcc/internal/tcpmodel"
)

// AIMD is the additive-increase/multiplicative-decrease window policy.
// TCP(b) in the paper's notation is AIMD{A: 4(2b-b^2)/3, B: b}.
type AIMD struct {
	// A is the additive increase per RTT, in packets.
	A float64
	// B is the multiplicative decrease factor: on a loss event the
	// window shrinks from W to (1-B)W.
	B float64
}

// NewAIMD returns the TCP-compatible AIMD policy for decrease factor b,
// deriving the increase parameter from the paper's relation.
// NewAIMD(0.5) is standard TCP.
func NewAIMD(b float64) AIMD {
	return AIMD{A: tcpmodel.AIMDIncrease(b), B: b}
}

// Increase implements cc.WindowPolicy: +A/W per ACK = +A per RTT.
func (p AIMD) Increase(cwnd float64) float64 { return p.A / math.Max(cwnd, 1) }

// Decrease implements cc.WindowPolicy.
func (p AIMD) Decrease(cwnd float64) float64 { return math.Max(1, (1-p.B)*cwnd) }

// Config parameterizes a Sender. Zero fields take the documented
// defaults.
type Config struct {
	// Flow is the flow identifier stamped on every packet.
	Flow int
	// Policy supplies the window rules (default NewAIMD(0.5), i.e.
	// standard TCP).
	Policy cc.WindowPolicy
	// MaxPkts, if positive, makes this a short transfer of that many
	// packets (used by the flash-crowd workload). Zero means a
	// long-lived flow.
	MaxPkts int64
	// OnDone, if non-nil, is invoked when a short transfer's last packet
	// is acknowledged.
	OnDone func()
	// ECN marks data packets ECN-capable and reacts to echoed
	// congestion-experienced marks with a window decrease (at most once
	// per round-trip time), per RFC 2481. Requires an ECN-marking
	// bottleneck to have any effect.
	ECN bool
	// SACK enables selective-acknowledgment-style loss recovery: the
	// sender tracks which sequences the receiver has individually
	// acknowledged (every ACK names the packet that triggered it) and
	// retransmits all outstanding holes during recovery, window
	// permitting, instead of NewReno's one hole per round trip. The
	// paper's ns-2 TCPs were Sack1 agents; this option matches them more
	// closely at the cost of a little per-flow state.
	SACK bool
}

func (c *Config) fill() {
	if c.Policy == nil {
		c.Policy = NewAIMD(0.5)
	}
}

// pktSize is the data packet size in bytes; minRTO and maxRTO bound the
// retransmit timer; initialCwnd is the slow-start initial window in
// packets.
const (
	pktSize              = cc.DefaultPktSize
	minRTO      sim.Time = 0.2
	maxRTO      sim.Time = 64
	initialCwnd          = 2
)

// Sender is a self-clocked window-based sender. Create with NewSender,
// wire its Out to the network, route returning ACKs to Handle, then
// Start it.
type Sender struct {
	Eng *sim.Engine
	cc.Port
	cfg Config

	st cc.SenderStats

	cwnd     float64
	ssthresh float64
	cum      int64 // receiver's next expected sequence, per latest ACK
	nextNew  int64 // next never-before-sent sequence
	dupAcks  int

	inRecovery bool
	recover    int64 // highest sequence outstanding when recovery began

	// SACK state: individually acknowledged sequences above cum, the
	// retransmission scan cursor for the current recovery episode, and
	// the count of retransmissions still unconfirmed.
	sacked   map[int64]bool
	rtxScan  int64
	rtxOut   int
	highSack int64

	srtt, rttvar sim.Time
	hasRTT       bool
	backoff      float64
	rtoTimer     *sim.Timer
	timeoutFn    func()
	ecnHold      sim.Time // no further ECN decrease before this time

	running bool
	done    bool
}

// NewSender returns a sender using cfg, transmitting into out.
func NewSender(eng *sim.Engine, out netem.Handler, cfg Config) *Sender {
	cfg.fill()
	s := &Sender{Eng: eng, Port: cc.Port{Out: out}, cfg: cfg, backoff: 1}
	s.timeoutFn = s.onTimeout
	if cfg.SACK {
		s.sacked = make(map[int64]bool)
	}
	return s
}

// Stats implements cc.Sender.
func (s *Sender) Stats() *cc.SenderStats { return &s.st }

// Cwnd returns the current congestion window in packets.
func (s *Sender) Cwnd() float64 { return s.cwnd }

// ProbeVars implements probe.Provider: the congestion window (packets)
// and smoothed RTT (seconds) — the pair every windowed variant (TCP,
// AIMD, the binomial family) is characterized by in the paper's
// time-series figures.
func (s *Sender) ProbeVars() []probe.Var {
	return []probe.Var{
		{Name: "cwnd", Read: s.Cwnd},
		{Name: "srtt", Read: func() float64 { return float64(s.srtt) }},
	}
}

// Start implements cc.Sender.
func (s *Sender) Start() {
	if s.running || s.done {
		return
	}
	s.running = true
	s.cwnd = initialCwnd
	s.ssthresh = math.Inf(1)
	s.trySend()
}

// Stop implements cc.Sender.
func (s *Sender) Stop() {
	s.running = false
	s.stopTimer()
}

func (s *Sender) inflight() int64 { return s.nextNew - s.cum }

func (s *Sender) moreData() bool {
	return s.cfg.MaxPkts == 0 || s.nextNew < s.cfg.MaxPkts
}

// pipe estimates packets currently in the network. Outside SACK
// recovery it is the plain outstanding count; during SACK recovery,
// sequences the receiver has individually acknowledged no longer occupy
// the pipe, while fresh retransmissions do.
func (s *Sender) pipe() float64 {
	if s.cfg.SACK && s.inRecovery {
		return float64(s.nextNew-s.cum-int64(len(s.sacked))) + float64(s.rtxOut)
	}
	return float64(s.inflight())
}

// trySend transmits as long as the window allows, enforcing packet
// conservation: new data leaves only when the window exceeds the number
// of packets outstanding.
func (s *Sender) trySend() {
	if !s.running || s.done {
		return
	}
	for s.moreData() && s.pipe()+1 <= s.cwnd+1e-9 {
		s.transmit(s.nextNew, false)
		s.nextNew++
	}
}

// sackRetransmit resends holes up to the recovery point, in order,
// while the window has room. A sequence only counts as lost once three
// later sequences have been selectively acknowledged (the RFC 6675
// DupThresh rule, approximated with the highest sacked sequence), so
// data that is merely still in flight is never retransmitted. Called on
// each ACK during SACK recovery.
func (s *Sender) sackRetransmit() {
	if s.rtxScan < s.cum {
		s.rtxScan = s.cum
	}
	for s.rtxScan <= s.recover && s.rtxScan <= s.highSack-3 && s.pipe()+1 <= s.cwnd+1e-9 {
		seq := s.rtxScan
		s.rtxScan++
		if s.sacked[seq] {
			continue
		}
		s.transmit(seq, true)
		s.rtxOut++
	}
}

func (s *Sender) transmit(seq int64, rtx bool) {
	s.st.PktsSent++
	s.st.BytesSent += int64(pktSize)
	if rtx {
		s.st.Rtx++
	}
	p := s.Pool.Get()
	p.Flow = s.cfg.Flow
	p.Kind = netem.Data
	p.Seq = seq
	p.Size = pktSize
	p.SentAt = s.Eng.Now()
	p.SenderRTT = s.srtt
	p.ECT = s.cfg.ECN
	s.Out.Handle(p)
	if !s.rtoTimer.Pending() {
		s.armTimer()
	}
}

// rto returns the current retransmit timeout including backoff.
func (s *Sender) rto() sim.Time {
	base := sim.Time(1.0) // conservative pre-sample default
	if s.hasRTT {
		base = s.srtt + float64(4*s.rttvar)
	}
	if base < minRTO {
		base = minRTO
	}
	if base > maxRTO {
		base = maxRTO
	}
	rto := base * s.backoff
	if rto > maxRTO {
		rto = maxRTO
	}
	return rto
}

func (s *Sender) armTimer() {
	// ResetAfter reuses the one handle this sender owns: removing a
	// still-pending timer and rescheduling consumes exactly one sequence
	// number, the same as the old Stop-then-After, so event ordering is
	// unchanged while the steady state allocates no timers.
	s.rtoTimer = s.Eng.ResetAfter(s.rtoTimer, s.rto(), s.timeoutFn)
}

func (s *Sender) stopTimer() {
	s.rtoTimer.Stop()
}

func (s *Sender) onTimeout() {
	if !s.running || s.done {
		return
	}
	if s.inflight() <= 0 {
		// Nothing outstanding; idle flow, no timer needed.
		return
	}
	s.st.Timeouts++
	s.st.LossEvents++
	s.ssthresh = math.Max(2, s.cfg.Policy.Decrease(s.cwnd))
	s.cwnd = 1
	s.backoff = math.Min(s.backoff*2, 64)
	s.inRecovery = false
	s.dupAcks = 0
	if s.cfg.SACK {
		s.sacked = make(map[int64]bool)
		s.rtxScan = 0
		s.rtxOut = 0
		s.highSack = 0
	}
	// Go-back-N: resume from the last sequence the receiver confirmed.
	s.nextNew = s.cum
	s.trySend()
	s.armTimer()
}

// Handle implements netem.Handler for returning ACKs. The sender is the
// ACK's final owner and releases it before returning.
func (s *Sender) Handle(p *netem.Packet) {
	if p.Kind != netem.Ack || !s.running || s.done {
		s.Pool.Put(p)
		return
	}
	// RTT sample: Echo is the transmit time of the specific packet this
	// ACK acknowledges, so the sample is unambiguous even for
	// retransmissions (Karn's problem does not arise).
	s.sampleRTT(s.Eng.Now() - p.Echo)

	if s.cfg.ECN && p.ECNEcho {
		s.onECNEcho()
	}
	if s.cfg.SACK && p.AckSeq >= p.CumAck {
		// The ACK names the specific packet that triggered it: exact
		// selective-acknowledgment information.
		s.sacked[p.AckSeq] = true
		if p.AckSeq > s.highSack {
			s.highSack = p.AckSeq
		}
	}

	switch {
	case p.CumAck > s.cum:
		s.onNewAck(p.CumAck)
	case p.CumAck == s.cum && s.inflight() > 0:
		s.onDupAck()
	}
	s.trySend()
	s.Pool.Put(p)
}

func (s *Sender) sampleRTT(m sim.Time) {
	if m <= 0 {
		return
	}
	if !s.hasRTT {
		s.srtt = m
		s.rttvar = m / 2
		s.hasRTT = true
		return
	}
	// Jacobson/Karels constants g = 1/8, h = 1/4.
	err := m - s.srtt
	s.srtt += float64(err / 8)
	if err < 0 {
		err = -err
	}
	s.rttvar += float64((err - s.rttvar) / 4)
}

func (s *Sender) onNewAck(cumAck int64) {
	newly := cumAck - s.cum
	if cumAck > s.nextNew {
		// ACK beyond anything outstanding (possible after go-back-N
		// rewound nextNew below data still in flight).
		s.nextNew = cumAck
	}
	s.cum = cumAck
	s.dupAcks = 0
	s.backoff = 1
	if s.cfg.SACK {
		for seq := range s.sacked {
			if seq < s.cum {
				delete(s.sacked, seq)
			}
		}
		if s.rtxOut > 0 {
			s.rtxOut-- // a cumulative advance confirms at least one hole
		}
	}

	if s.inRecovery {
		if s.cum > s.recover {
			// Full recovery: deflate to the reduced window.
			s.inRecovery = false
			s.cwnd = s.ssthresh
			s.rtxOut = 0
		} else if s.cfg.SACK {
			// SACK partial ACK: fill the remaining holes as the window
			// allows.
			s.sackRetransmit()
		} else {
			// NewReno partial ACK: the next hole is lost too.
			// Retransmit it and deflate by the amount acknowledged.
			s.cwnd = math.Max(s.ssthresh, s.cwnd-float64(newly)+1)
			s.transmit(s.cum, true)
		}
	} else {
		if s.cwnd < s.ssthresh {
			s.cwnd += float64(newly) // slow start
		} else {
			s.cwnd += float64(float64(newly) * s.cfg.Policy.Increase(s.cwnd))
		}
	}

	if s.cfg.MaxPkts > 0 && s.cum >= s.cfg.MaxPkts {
		s.done = true
		s.running = false
		s.stopTimer()
		if s.cfg.OnDone != nil {
			s.cfg.OnDone()
		}
		return
	}
	if s.inflight() > 0 {
		s.armTimer()
	} else {
		s.stopTimer()
	}
}

// onECNEcho applies the window-policy decrease to an echoed mark, at
// most once per RTT and never while loss recovery is already reducing.
func (s *Sender) onECNEcho() {
	now := s.Eng.Now()
	if s.inRecovery || now < s.ecnHold {
		return
	}
	s.ecnHold = now + s.srtt
	s.st.LossEvents++
	s.ssthresh = math.Max(2, s.cfg.Policy.Decrease(s.cwnd))
	s.cwnd = s.ssthresh
}

func (s *Sender) onDupAck() {
	s.dupAcks++
	if s.inRecovery {
		if s.cfg.SACK {
			// Pipe shrank by the newly-sacked packet: fill holes.
			s.sackRetransmit()
		} else {
			// NewReno window inflation: each dup ACK signals a
			// departure.
			s.cwnd++
		}
		return
	}
	if s.dupAcks == 3 {
		s.st.LossEvents++
		s.inRecovery = true
		s.recover = s.nextNew - 1
		s.ssthresh = math.Max(2, s.cfg.Policy.Decrease(s.cwnd))
		if s.cfg.SACK {
			s.cwnd = s.ssthresh
			s.rtxOut = 0
			// Fast retransmit of the first hole is unconditional, like
			// classic fast retransmit; later holes go out pipe-limited.
			s.transmit(s.cum, true)
			s.rtxOut++
			s.rtxScan = s.cum + 1
			s.sackRetransmit()
		} else {
			s.cwnd = s.ssthresh + 3
			s.transmit(s.cum, true) // fast retransmit of the hole
		}
		s.armTimer()
	}
}
