// Package tear implements TCP Emulation At Receivers (Rhee, Ozdemir, Yi
// — NCSU TR 2000), the fourth SlowCC family the paper surveys: the
// *receiver* runs TCP's congestion window algorithms (slow-start, AIMD,
// loss halving) on the arriving packet stream, maintains an
// exponentially-weighted moving average of the emulated congestion
// window, divides it by the round-trip time to obtain a TCP-compatible
// sending rate, and feeds that rate back to the sender, which simply
// paces transmissions at it. Because the reported rate is a smoothed
// window average, TEAR's response to any single loss is gentle:
// TCP-compatible yet slowly-responsive.
package tear

import (
	"math"

	"slowcc/internal/cc"
	"slowcc/internal/netem"
	"slowcc/internal/obs/probe"
	"slowcc/internal/sim"
)

// Receiver runs the emulated TCP window and reports smoothed rates.
type Receiver struct {
	Eng *sim.Engine
	cc.Port
	// Flow is the flow identifier.
	Flow int
	// Alpha is the EWMA gain applied once per emulated round
	// (default 0.1: the window average spans roughly ten rounds, which
	// is what makes TEAR slowly-responsive).
	Alpha float64

	R cc.ReceiverStats

	cwnd     float64
	ssthresh float64
	rtt      sim.Time
	maxSeq   int64
	gotAny   bool

	roundFrac   float64 // emulated RTTs accumulated toward the next fold
	smoothW     float64 // EWMA of the emulated window, in packets
	haveW       bool
	lastEventAt sim.Time
	pktSize     int

	fbTimer *sim.Timer
	fbFn    func()
}

// NewReceiver returns a TEAR receiver reporting into out.
func NewReceiver(eng *sim.Engine, flow int, out netem.Handler) *Receiver {
	r := &Receiver{
		Eng:  eng,
		Port: cc.Port{Out: out},
		Flow: flow, Alpha: 0.1,
		cwnd: 2, ssthresh: math.Inf(1),
		maxSeq:      -1,
		lastEventAt: math.Inf(-1),
		pktSize:     cc.DefaultPktSize,
	}
	r.fbFn = r.onFeedbackTimer
	return r
}

// Stats returns the receiver counters.
func (r *Receiver) Stats() *cc.ReceiverStats { return &r.R }

// Rate returns the smoothed TCP-compatible rate in bytes/s.
func (r *Receiver) Rate() float64 {
	w := r.cwnd
	if r.haveW {
		w = r.smoothW
	}
	return w * float64(r.pktSize) / float64(r.currentRTT())
}

// Window returns the current emulated congestion window in packets.
func (r *Receiver) Window() float64 { return r.cwnd }

// ProbeVars implements probe.Provider: the TCP-compatible rate the
// receiver feeds back upstream (bytes/s) and the emulated window driving
// it (packets). A flow's probe carries both ends' variables, so the
// name is not the sender's "rate": one key, one series.
func (r *Receiver) ProbeVars() []probe.Var {
	return []probe.Var{
		{Name: "fb_rate", Read: r.Rate},
		{Name: "cwnd", Read: r.Window},
	}
}

func (r *Receiver) currentRTT() sim.Time {
	if r.rtt > 0 {
		return r.rtt
	}
	return 0.05
}

// Handle implements netem.Handler for arriving data packets. The
// receiver is the packet's final owner and releases it before returning.
func (r *Receiver) Handle(p *netem.Packet) {
	if p.Kind != netem.Data {
		r.Pool.Put(p)
		return
	}
	now := r.Eng.Now()
	r.R.PktsRecv++
	r.R.BytesRecv += int64(p.Size)
	if p.SenderRTT > 0 {
		r.rtt = p.SenderRTT
	}
	r.pktSize = p.Size
	seq, size := p.Seq, p.Size
	r.Pool.Put(p)

	if !r.gotAny {
		r.gotAny = true
		r.maxSeq = seq
		r.R.UniqueBytes += int64(size)
		r.scheduleFeedback()
		return
	}
	if seq <= r.maxSeq {
		return
	}
	lost := seq - r.maxSeq - 1
	r.maxSeq = seq
	r.R.UniqueBytes += int64(size)

	if lost > 0 && now-r.lastEventAt > r.currentRTT() {
		// Loss event: the emulated TCP halves, at most once per RTT.
		r.lastEventAt = now
		r.ssthresh = math.Max(2, r.cwnd/2)
		r.cwnd = r.ssthresh
		r.fold()
		return
	}

	// Emulate the per-ACK window growth TCP would have had.
	if r.cwnd < r.ssthresh {
		r.cwnd++
	} else {
		r.cwnd += 1 / math.Max(r.cwnd, 1)
	}
	// Each arrival advances emulated time by 1/W of a round; fold the
	// window into the EWMA once per emulated round.
	r.roundFrac += 1 / math.Max(r.cwnd, 1)
	if r.roundFrac >= 1 {
		r.roundFrac = 0
		r.fold()
	}
}

func (r *Receiver) fold() {
	if !r.haveW {
		r.smoothW = r.cwnd
		r.haveW = true
		return
	}
	r.smoothW = float64((1-r.Alpha)*r.smoothW) + float64(r.Alpha*r.cwnd)
}

func (r *Receiver) scheduleFeedback() {
	r.fbTimer = r.Eng.ResetAfter(r.fbTimer, r.currentRTT(), r.fbFn)
}

// onFeedbackTimer is the periodic rate-report tick.
func (r *Receiver) onFeedbackTimer() {
	r.sendFeedback()
	r.scheduleFeedback()
}

// sendFeedback reports the smoothed rate once per RTT.
func (r *Receiver) sendFeedback() {
	fb := r.Pool.NewFeedback()
	fb.RecvRate = r.Rate()
	p := r.Pool.Get()
	p.Flow = r.Flow
	p.Kind = netem.Feedback
	p.Size = cc.DefaultAckSize
	p.SentAt = r.Eng.Now()
	p.Echo = r.Eng.Now() // TEAR feedback does not echo data stamps
	p.FB = fb
	r.Out.Handle(p)
}

// Sender is the trivial TEAR sender: it paces packets at the rate the
// receiver dictates.
type Sender struct {
	Eng *sim.Engine
	cc.Port
	// Flow is the flow identifier.
	Flow int
	// PktSize is the data packet size (default cc.DefaultPktSize).
	PktSize int

	st      cc.SenderStats
	rate    float64
	seq     int64
	running bool
	timer   *sim.Timer
	loopFn  func()
	srtt    sim.Time
	lastFB  sim.Time
}

// NewSender returns a TEAR sender transmitting into out.
func NewSender(eng *sim.Engine, out netem.Handler, flow int) *Sender {
	s := &Sender{Eng: eng, Port: cc.Port{Out: out}, Flow: flow, PktSize: cc.DefaultPktSize}
	s.loopFn = s.loop
	return s
}

// Stats implements cc.Sender.
func (s *Sender) Stats() *cc.SenderStats { return &s.st }

// Rate returns the current paced rate in bytes/s.
func (s *Sender) Rate() float64 { return s.rate }

// ProbeVars implements probe.Provider: the paced sending rate (bytes/s)
// the receiver's window reports have converged the sender to.
func (s *Sender) ProbeVars() []probe.Var {
	return []probe.Var{{Name: "rate", Read: s.Rate}}
}

// Start implements cc.Sender.
func (s *Sender) Start() {
	if s.running {
		return
	}
	s.running = true
	s.rate = float64(s.PktSize) / 0.05 // one packet per nominal RTT
	s.loop()
}

// Stop implements cc.Sender.
func (s *Sender) Stop() {
	s.running = false
	if s.timer != nil {
		s.timer.Stop()
	}
}

func (s *Sender) loop() {
	if !s.running {
		return
	}
	now := s.Eng.Now()
	// Safety valve: if feedback stops entirely for a second, halve the
	// rate each loop pass so a dead reverse path cannot freeze the rate
	// high (the same role TFRC's no-feedback timer plays).
	if s.lastFB > 0 && now-s.lastFB > 1 {
		s.rate = math.Max(s.rate/2, float64(s.PktSize)/64)
		s.lastFB = now
	}
	s.st.PktsSent++
	s.st.BytesSent += int64(s.PktSize)
	p := s.Pool.Get()
	p.Flow = s.Flow
	p.Kind = netem.Data
	p.Seq = s.seq
	p.Size = s.PktSize
	p.SentAt = now
	p.SenderRTT = s.srttOrDefault()
	s.Out.Handle(p)
	s.seq++
	gap := float64(s.PktSize) / math.Max(s.rate, 1e-3)
	s.timer = s.Eng.ResetAfter(s.timer, gap, s.loopFn)
}

func (s *Sender) srttOrDefault() sim.Time {
	if s.srtt > 0 {
		return s.srtt
	}
	return 0.05
}

// Handle implements netem.Handler for receiver rate reports. The sender
// is the report's final owner and releases it before returning.
func (s *Sender) Handle(p *netem.Packet) {
	if p.Kind != netem.Feedback || p.FB == nil || !s.running {
		s.Pool.Put(p)
		return
	}
	s.lastFB = s.Eng.Now()
	if m := s.Eng.Now() - p.SentAt; m > 0 {
		// One-way feedback delay doubled approximates the RTT well
		// enough for stamping data packets.
		if s.srtt == 0 {
			s.srtt = 2 * m
		} else {
			s.srtt = float64(0.9*s.srtt) + float64(0.1*2*m)
		}
	}
	if p.FB.RecvRate > 0 {
		s.rate = math.Max(p.FB.RecvRate, float64(s.PktSize)/64)
	}
	s.Pool.Put(p)
}
