// Package rap implements the Rate Adaptation Protocol of Rejaie et al.
// (INFOCOM 1999): AIMD congestion control with the same increase/decrease
// rules as TCP(b) but applied to a transmission *rate* rather than a
// self-clocked window. Data leaves on a pacing timer irrespective of ACK
// arrival — exactly the property the paper identifies as dangerous under
// sudden congestion. RAP(1/gamma) is New with b = 1/gamma and the
// TCP-compatible increase parameter.
package rap

import (
	"math"

	"slowcc/internal/cc"
	"slowcc/internal/netem"
	"slowcc/internal/obs/probe"
	"slowcc/internal/sim"
	"slowcc/internal/tcpmodel"
)

// Config parameterizes a RAP sender.
type Config struct {
	// Flow is the flow identifier.
	Flow int
	// B is the multiplicative decrease factor (default 0.5: standard
	// RAP, which is TCP-equivalent).
	B float64
}

// pktSize is the data packet size in bytes, and initialW the starting
// rate in packets per RTT.
const (
	pktSize  = cc.DefaultPktSize
	initialW = 2
)

func (c *Config) fill() {
	if c.B == 0 {
		c.B = 0.5
	}
}

// Sender is a rate-based AIMD sender. Pair it with a cc.AckReceiver on
// the far side; RAP does not retransmit (it targets streaming media), so
// loss detection uses per-packet ACK sequence gaps rather than
// cumulative ACKs.
type Sender struct {
	Eng *sim.Engine
	cc.Port
	cfg Config
	a   float64 // additive increase in packets per RTT per RTT: TCP-compatible for cfg.B

	st cc.SenderStats

	w        float64 // rate in packets per RTT
	srtt     sim.Time
	hasRTT   bool
	seq      int64
	lastAck  int64    // highest AckSeq seen
	holdOff  sim.Time // no further decrease until this time (1 per RTT)
	lastRecv sim.Time // time of most recent ACK arrival
	inSS     bool     // pre-first-loss doubling phase

	running   bool
	sendTimer *sim.Timer
	updTimer  *sim.Timer
	sendFn    func()
	updFn     func()
}

// NewSender returns a RAP sender transmitting into out.
func NewSender(eng *sim.Engine, out netem.Handler, cfg Config) *Sender {
	cfg.fill()
	s := &Sender{Eng: eng, Port: cc.Port{Out: out}, cfg: cfg, a: tcpmodel.AIMDIncrease(cfg.B), lastAck: -1}
	s.sendFn = s.sendLoop
	s.updFn = s.update
	return s
}

// Stats implements cc.Sender.
func (s *Sender) Stats() *cc.SenderStats { return &s.st }

// RatePktsPerRTT returns the current sending rate in packets per RTT.
func (s *Sender) RatePktsPerRTT() float64 { return s.w }

// Rate returns the current sending rate in bytes per second.
func (s *Sender) Rate() float64 {
	return s.w * float64(pktSize) / s.rtt()
}

// ProbeVars implements probe.Provider: the sending rate (bytes/s) and
// the AIMD window w it derives from (packets per RTT).
func (s *Sender) ProbeVars() []probe.Var {
	return []probe.Var{
		{Name: "rate", Read: s.Rate},
		{Name: "w", Read: s.RatePktsPerRTT},
	}
}

func (s *Sender) rtt() sim.Time {
	if s.hasRTT {
		return s.srtt
	}
	return 0.05 // pre-sample placeholder; one sample arrives within a RTT
}

// Start implements cc.Sender.
func (s *Sender) Start() {
	if s.running {
		return
	}
	s.running = true
	s.w = initialW
	s.inSS = true
	s.lastRecv = s.Eng.Now()
	s.sendLoop()
	s.scheduleUpdate()
}

// Stop implements cc.Sender.
func (s *Sender) Stop() {
	s.running = false
	for _, t := range []*sim.Timer{s.sendTimer, s.updTimer} {
		if t != nil {
			t.Stop()
		}
	}
}

// sendLoop transmits one packet and reschedules itself at the current
// pacing interval. This is the absence of self-clocking: the timer fires
// regardless of whether acknowledgments arrive.
func (s *Sender) sendLoop() {
	if !s.running {
		return
	}
	s.st.PktsSent++
	s.st.BytesSent += int64(pktSize)
	p := s.Pool.Get()
	p.Flow = s.cfg.Flow
	p.Kind = netem.Data
	p.Seq = s.seq
	p.Size = pktSize
	p.SentAt = s.Eng.Now()
	p.SenderRTT = s.rtt()
	s.Out.Handle(p)
	s.seq++
	gap := s.rtt() / math.Max(s.w, 1e-6)
	s.sendTimer = s.Eng.ResetAfter(s.sendTimer, gap, s.sendFn)
}

// scheduleUpdate arms the once-per-RTT rate-update tick.
func (s *Sender) scheduleUpdate() {
	s.updTimer = s.Eng.ResetAfter(s.updTimer, s.rtt(), s.updFn)
}

// update applies the additive increase (or the starvation decrease when
// ACKs have stopped entirely) once per RTT.
func (s *Sender) update() {
	if !s.running {
		return
	}
	now := s.Eng.Now()
	if now-s.lastRecv > 2*s.rtt()+0.2 {
		// Complete ACK starvation. RAP still only responds at its
		// configured speed: one multiplicative decrease per RTT.
		s.decrease(now)
	} else if now >= s.holdOff {
		if s.inSS {
			s.w *= 2 // startup doubling until the first loss
		} else {
			s.w += s.a
		}
	}
	s.scheduleUpdate()
}

func (s *Sender) decrease(now sim.Time) {
	s.st.LossEvents++
	s.inSS = false
	s.w = math.Max(1, s.w*(1-s.cfg.B))
	s.holdOff = now + s.rtt()
}

// Handle implements netem.Handler for returning ACKs. A gap in the ACK
// sequence reveals a loss; at most one rate decrease is taken per RTT.
func (s *Sender) Handle(p *netem.Packet) {
	if p.Kind != netem.Ack || !s.running {
		s.Pool.Put(p)
		return
	}
	now := s.Eng.Now()
	s.lastRecv = now
	if m := now - p.Echo; m > 0 {
		if !s.hasRTT {
			s.srtt = m
			s.hasRTT = true
		} else {
			s.srtt = float64(0.9*s.srtt) + float64(0.1*m)
		}
	}
	if p.AckSeq > s.lastAck+1 && now >= s.holdOff {
		s.decrease(now)
	}
	if p.AckSeq > s.lastAck {
		s.lastAck = p.AckSeq
	}
	s.Pool.Put(p)
}
