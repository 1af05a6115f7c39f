package tfrc

import (
	"math"

	"slowcc/internal/cc"
	"slowcc/internal/netem"
	"slowcc/internal/obs/probe"
	"slowcc/internal/sim"
	"slowcc/internal/tcpmodel"
)

// tMBI is the maximum back-off interval: the sender never drops below
// one packet per tMBI seconds (RFC 3448's t_mbi = 64s).
const tMBI = 64.0

// Config parameterizes a TFRC sender.
type Config struct {
	// Flow is the flow identifier.
	Flow int
	// Conservative enables the paper's self-clocking option: after a
	// reported loss, cap the rate at the reported receive rate; with no
	// loss (outside slow-start), cap at conservativeC times it.
	Conservative bool
}

// pktSize is the data packet size in bytes; initialRTT seeds the RTT
// estimate before the first feedback; conservativeC is the conservative
// option's headroom constant (1.1, the value used in the paper's
// experiments; ns-2 ships 1.5).
const (
	pktSize                = cc.DefaultPktSize
	initialRTT    sim.Time = 0.05
	conservativeC          = 1.1
)

// Sender is the TFRC sender half: a paced transmitter whose rate is set
// from receiver feedback through the TCP response function.
type Sender struct {
	Eng *sim.Engine
	cc.Port
	cfg Config

	st cc.SenderStats

	x       float64 // allowed sending rate, bytes/s
	srtt    sim.Time
	hasRTT  bool
	seq     int64
	inSS    bool // slow-start: no loss reported yet
	running bool
	sendT   *sim.Timer
	nfT     *sim.Timer // no-feedback timer
	sendFn  func()
	nfFn    func()
}

// NewSender returns a TFRC sender transmitting into out.
func NewSender(eng *sim.Engine, out netem.Handler, cfg Config) *Sender {
	s := &Sender{Eng: eng, Port: cc.Port{Out: out}, cfg: cfg}
	s.sendFn = s.sendLoop
	s.nfFn = s.onNoFeedback
	return s
}

// Stats implements cc.Sender.
func (s *Sender) Stats() *cc.SenderStats { return &s.st }

// Rate returns the current allowed sending rate in bytes per second.
func (s *Sender) Rate() float64 { return s.x }

// SRTT returns the smoothed RTT estimate.
func (s *Sender) SRTT() sim.Time {
	if s.hasRTT {
		return s.srtt
	}
	return initialRTT
}

// ProbeVars implements probe.Provider: the allowed sending rate
// (bytes/s) and smoothed RTT (seconds). The loss-event rate the rate is
// computed from lives on the Receiver.
func (s *Sender) ProbeVars() []probe.Var {
	return []probe.Var{
		{Name: "rate", Read: s.Rate},
		{Name: "srtt", Read: func() float64 { return float64(s.SRTT()) }},
	}
}

// Start implements cc.Sender.
func (s *Sender) Start() {
	if s.running {
		return
	}
	s.running = true
	s.inSS = true
	// Initial rate: one packet per (assumed) RTT.
	s.x = float64(pktSize) / float64(initialRTT)
	s.sendLoop()
	s.armNoFeedback()
}

// Stop implements cc.Sender.
func (s *Sender) Stop() {
	s.running = false
	for _, t := range []*sim.Timer{s.sendT, s.nfT} {
		if t != nil {
			t.Stop()
		}
	}
}

// sendLoop transmits one packet and paces the next at the current rate.
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
	p.SenderRTT = s.SRTT()
	s.Out.Handle(p)
	s.seq++
	gap := float64(pktSize) / math.Max(s.x, 1e-3)
	s.sendT = s.Eng.ResetAfter(s.sendT, gap, s.sendFn)
}

func (s *Sender) minRate() float64 { return float64(pktSize) / tMBI }

func (s *Sender) armNoFeedback() {
	d := math.Max(4*float64(s.SRTT()), 2*float64(pktSize)/math.Max(s.x, 1e-3))
	s.nfT = s.Eng.ResetAfter(s.nfT, d, s.nfFn)
}

// onNoFeedback halves the rate when the feedback stream dries up
// entirely, per the specification.
func (s *Sender) onNoFeedback() {
	if !s.running {
		return
	}
	s.st.Timeouts++
	s.x = math.Max(s.x/2, s.minRate())
	s.armNoFeedback()
}

// Handle implements netem.Handler for receiver feedback. The sender is
// the feedback packet's final owner and releases it before returning.
func (s *Sender) Handle(p *netem.Packet) {
	if p.Kind != netem.Feedback || p.FB == nil || !s.running {
		s.Pool.Put(p)
		return
	}
	now := s.Eng.Now()
	if m := now - p.Echo; m > 0 && p.Echo > 0 {
		if !s.hasRTT {
			s.srtt = m
			s.hasRTT = true
		} else {
			s.srtt = float64(0.9*s.srtt) + float64(0.1*m) // TFRC's q = 0.9 EWMA
		}
	}
	fb := p.FB
	rtt := float64(s.SRTT())

	if fb.LossEventRate <= 0 {
		// Slow-start: double per RTT, capped at twice the rate the
		// receiver reports actually arriving.
		s.x = math.Max(math.Min(2*s.x, 2*fb.RecvRate), float64(pktSize)/float64(rtt))
	} else {
		if s.inSS {
			s.inSS = false
			if fb.RecvRate > 0 {
				s.x = fb.RecvRate / 2 // spec: halve on slow-start exit
			}
		}
		xCalc := tcpmodel.PadhyeRate(fb.LossEventRate, rtt, 4*rtt, pktSize)
		if s.cfg.Conservative {
			// The paper's self-clocking pseudo-code: the round trip
			// after a loss, never exceed the receive rate; otherwise
			// allow only C times it.
			if fb.LossSeen {
				s.x = math.Min(xCalc, fb.RecvRate)
				s.st.LossEvents++
			} else {
				s.x = math.Min(xCalc, conservativeC*fb.RecvRate)
			}
		} else {
			// Standard TFRC: cap at twice the receive rate.
			if fb.LossSeen {
				s.st.LossEvents++
			}
			s.x = math.Min(xCalc, 2*fb.RecvRate)
		}
	}
	if s.x < s.minRate() {
		s.x = s.minRate()
	}
	s.armNoFeedback()
	s.Pool.Put(p)
}
