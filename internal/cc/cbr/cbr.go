// Package cbr implements the unresponsive constant-bit-rate sources that
// drive the paper's dynamic scenarios: a CBR sender modulated by an
// ON/OFF schedule (a square wave or an explicit one-shot timeline).
package cbr

import (
	"math"

	"slowcc/internal/cc"
	"slowcc/internal/netem"
	"slowcc/internal/sim"
)

// Schedule modulates a CBR source: Level returns the sending-rate
// multiplier in [0,1] at time t, and NextChange returns the next time
// after t at which the level may change (so an OFF source can sleep
// until its next ON edge rather than poll).
type Schedule interface {
	Level(t sim.Time) float64
	NextChange(t sim.Time) sim.Time
}

// Always is a schedule that is permanently ON.
type Always struct{}

// Level implements Schedule.
func (Always) Level(sim.Time) float64 { return 1 }

// NextChange implements Schedule.
func (Always) NextChange(sim.Time) sim.Time { return math.Inf(1) }

// SquareWave alternates ON for Period/2 and OFF for Period/2, starting
// ON at time 0.
type SquareWave struct {
	// Period is the combined length of one ON plus one OFF span.
	Period sim.Time
}

// Level implements Schedule.
func (s SquareWave) Level(t sim.Time) float64 {
	if s.Period <= 0 {
		return 1
	}
	x := math.Mod(t, s.Period)
	if x < 0 {
		x += s.Period
	}
	if x < s.Period/2 {
		return 1
	}
	return 0
}

// NextChange implements Schedule.
func (s SquareWave) NextChange(t sim.Time) sim.Time {
	if s.Period <= 0 {
		return math.Inf(1)
	}
	half := s.Period / 2
	return (math.Floor(t/half) + 1) * half
}

// Steps is an explicit piecewise-constant schedule: Level is Levels[i]
// from At[i] until At[i+1], 0 before At[0], and Levels[len-1] after the
// last edge. Used for the paper's one-shot CBR timeline in Figure 3
// (ON at 0, OFF at 150, ON at 180).
type Steps struct {
	At     []sim.Time
	Levels []float64
}

// Level implements Schedule.
func (s Steps) Level(t sim.Time) float64 {
	lv := 0.0
	for i, at := range s.At {
		if t >= at {
			lv = s.Levels[i]
		} else {
			break
		}
	}
	return lv
}

// NextChange implements Schedule.
func (s Steps) NextChange(t sim.Time) sim.Time {
	for _, at := range s.At {
		if at > t {
			return at
		}
	}
	return math.Inf(1)
}

// Source is a CBR packet source. It transmits PktSize-byte packets at
// PeakRate*Schedule.Level(now) bits per second, with deterministic
// spacing. CBR packets are one-way; no acknowledgments return.
type Source struct {
	Eng *sim.Engine
	cc.Port
	// Flow is the flow identifier.
	Flow int
	// PeakRate is the ON sending rate in bits per second.
	PeakRate float64
	// PktSize is the packet size in bytes (default cc.DefaultPktSize).
	PktSize int
	// Sched modulates the rate (default Always).
	Sched Schedule

	st      cc.SenderStats
	running bool
	timer   *sim.Timer
	tickFn  func()
	seq     int64
	credit  float64 // accrued transmission allowance, in bits
	lastT   sim.Time
}

// NewSource returns a CBR source sending into out.
func NewSource(eng *sim.Engine, out netem.Handler, flow int, peakRate float64, sched Schedule) *Source {
	if sched == nil {
		sched = Always{}
	}
	s := &Source{Eng: eng, Port: cc.Port{Out: out}, Flow: flow, PeakRate: peakRate,
		PktSize: cc.DefaultPktSize, Sched: sched}
	s.tickFn = s.tick
	return s
}

// Stats implements cc.Sender.
func (s *Source) Stats() *cc.SenderStats { return &s.st }

// Start implements cc.Sender.
func (s *Source) Start() {
	if s.running {
		return
	}
	s.running = true
	s.lastT = s.Eng.Now()
	s.credit = float64(s.PktSize) * 8 // permit an immediate first packet
	s.tick()
}

// Stop implements cc.Sender.
func (s *Source) Stop() {
	s.running = false
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
}

// Handle implements netem.Handler; CBR ignores (and releases) any
// incoming packets.
func (s *Source) Handle(p *netem.Packet) { s.Pool.Put(p) }

// tick accrues sending credit from the schedule's rate integral, emits
// any packets the credit covers, and sleeps until either the next packet
// is affordable or the schedule changes, whichever comes first. Credit
// pacing handles continuously varying schedules (sawtooth ramps) exactly,
// where naive "gap = size/rate(now)" pacing would oversleep near a
// zero-rate boundary.
func (s *Source) tick() {
	if !s.running {
		return
	}
	now := s.Eng.Now()
	pktBits := float64(float64(s.PktSize) * 8)

	// Accrue credit over [lastT, now]. Wake-ups never straddle a
	// schedule change, so the midpoint level integrates constant
	// segments exactly and linear ramps by the trapezoid rule.
	if dt := now - s.lastT; dt > 0 {
		mid := s.Sched.Level(s.lastT + float64(dt/2))
		s.credit += float64(s.PeakRate * mid * dt)
	}
	s.lastT = now
	// Never bank more than a couple of packets: a CBR source does not
	// burst to catch up.
	if max := 2 * pktBits; s.credit > max {
		s.credit = max
	}

	// The 1e-6-bit slack absorbs float rounding in the credit integral;
	// without it eta can shrink below the clock's resolution and the
	// source would spin at a frozen timestamp.
	for s.credit >= pktBits-1e-6 {
		s.credit -= pktBits
		if s.credit < 0 {
			s.credit = 0
		}
		s.st.PktsSent++
		s.st.BytesSent += int64(s.PktSize)
		p := s.Pool.Get()
		p.Flow = s.Flow
		p.Kind = netem.Data
		p.Seq = s.seq
		p.Size = s.PktSize
		p.SentAt = now
		s.Out.Handle(p)
		s.seq++
	}

	level := s.Sched.Level(now)
	change := s.Sched.NextChange(now)
	var wake sim.Time
	if level > 0 {
		eta := (pktBits - s.credit) / (s.PeakRate * level)
		if eta < 1e-9 {
			eta = 1e-9
		}
		wake = now + eta
		if change < wake {
			wake = change + 1e-9
		}
	} else {
		if math.IsInf(change, 1) {
			return // permanently off
		}
		wake = change + 1e-9
	}
	s.timer = s.Eng.ResetAt(s.timer, wake, s.tickFn)
}
