// Package tfrc implements TCP-Friendly Rate Control (Floyd, Handley,
// Padhye, Widmer — SIGCOMM 2000): equation-based congestion control
// where the receiver measures the loss event rate as a weighted average
// over the most recent k loss intervals (WALI) and the sender sets its
// rate from the Padhye TCP response function. TFRC(k) in the paper's
// notation is this implementation with NumIntervals = k; the deployed
// default corresponds roughly to TFRC(6)-TFRC(8).
//
// The paper's `conservative_` self-clocking option (Section 4.1.1) is
// the Sender's Conservative field: after a reported loss the sending
// rate is capped at the receiver's reported receive rate, and otherwise
// at C times it, restoring the principle of packet conservation to a
// rate-based protocol.
package tfrc

import (
	"math"

	"slowcc/internal/cc"
	"slowcc/internal/netem"
	"slowcc/internal/obs/probe"
	"slowcc/internal/sim"
	"slowcc/internal/tcpmodel"
)

// Weights returns the WALI weight vector for n loss intervals: flat for
// the most recent half, then linearly declining. For n = 8 this is the
// specification's {1, 1, 1, 1, 0.8, 0.6, 0.4, 0.2}.
func Weights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		if 2*i < n {
			w[i] = 1
		} else {
			w[i] = 2 * float64(n-i) / float64(n+2)
		}
	}
	return w
}

// Receiver is the TFRC receiver half: it detects loss events, maintains
// the loss-interval history, and reports feedback once per round-trip
// time (plus immediately upon each new loss event, per the
// specification).
type Receiver struct {
	Eng *sim.Engine
	cc.Port
	// Flow is the flow identifier.
	Flow int
	// NumIntervals is k in TFRC(k): the number of loss intervals
	// averaged (default 8).
	NumIntervals int
	// HistoryDiscounting enables the mechanism that de-weights old lossy
	// intervals when the current interval grows beyond twice the
	// average (RFC 3448 section 5.5). On by default in ns-2; the paper
	// disables it for the f(k) study.
	HistoryDiscounting bool

	R cc.ReceiverStats

	weights []float64
	fbFn    func()

	maxSeq       int64 // highest sequence seen
	gotAny       bool
	rtt          sim.Time // sender-stamped RTT estimate
	lastPktSent  sim.Time // SentAt of the most recent data packet
	lastPktSize  int
	eventStart   sim.Time // time the current loss event began
	eventSeq     int64    // first lost sequence of the current event
	intervals    []int64  // closed loss intervals, most recent first
	haveLoss     bool
	lossSinceFB  bool
	fbBytes      int64 // bytes since last feedback
	lastFBTime   sim.Time
	fbTimer      *sim.Timer
	lastRecvRate float64
}

// NewReceiver returns a TFRC(k) receiver for the given flow, reporting
// into out.
func NewReceiver(eng *sim.Engine, flow int, out netem.Handler, k int) *Receiver {
	if k <= 0 {
		k = 8
	}
	r := &Receiver{
		Eng:          eng,
		Port:         cc.Port{Out: out},
		Flow:         flow,
		NumIntervals: k,
		weights:      Weights(k),
		maxSeq:       -1,
	}
	r.fbFn = r.onFeedbackTimer
	return r
}

// Stats returns the receiver's counters.
func (r *Receiver) Stats() *cc.ReceiverStats { return &r.R }

// LossEventRate returns the current loss event rate estimate (0 before
// any loss).
func (r *Receiver) LossEventRate() float64 {
	if !r.haveLoss {
		return 0
	}
	return 1 / r.avgInterval()
}

// ProbeVars implements probe.Provider: the loss-event rate estimate p,
// the receiver-side input to the TCP throughput equation (Figure 8's
// lower panels trace exactly this signal).
func (r *Receiver) ProbeVars() []probe.Var {
	return []probe.Var{{Name: "p", Read: r.LossEventRate}}
}

// currentRTT returns the working RTT estimate for feedback scheduling
// and loss-event coalescing.
func (r *Receiver) currentRTT() sim.Time {
	if r.rtt > 0 {
		return r.rtt
	}
	return 0.05
}

// Handle implements netem.Handler for incoming data packets. The
// receiver is the packet's final owner and releases it before returning.
func (r *Receiver) Handle(p *netem.Packet) {
	if p.Kind != netem.Data {
		r.Pool.Put(p)
		return
	}
	now := r.Eng.Now()
	r.R.PktsRecv++
	r.R.BytesRecv += int64(p.Size)
	r.fbBytes += int64(p.Size)
	if p.SenderRTT > 0 {
		r.rtt = p.SenderRTT
	}
	r.lastPktSent = p.SentAt
	r.lastPktSize = p.Size
	seq, size := p.Seq, p.Size
	r.Pool.Put(p)

	if !r.gotAny {
		r.gotAny = true
		r.maxSeq = seq
		r.R.UniqueBytes += int64(size)
		r.lastFBTime = now
		r.scheduleFeedback()
		return
	}
	if seq <= r.maxSeq {
		return // duplicate or reordered; TFRC senders do not retransmit
	}
	if gap := seq - r.maxSeq - 1; gap > 0 {
		r.onLoss(r.maxSeq+1, now)
	}
	r.R.UniqueBytes += int64(size)
	r.maxSeq = seq
}

// onLoss registers that packet firstLost went missing at time now,
// opening a new loss event unless one began within the last RTT.
func (r *Receiver) onLoss(firstLost int64, now sim.Time) {
	if r.haveLoss && now-r.eventStart < r.currentRTT() {
		return // same loss event: losses within one RTT coalesce
	}
	if !r.haveLoss {
		// First ever loss event: synthesize the previous interval so
		// that the equation reproduces the current receive rate
		// (RFC 3448 section 6.3.1).
		r.haveLoss = true
		rate := r.recvRateNow(now)
		rtt := r.currentRTT()
		size := r.lastPktSize
		if size == 0 {
			size = cc.DefaultPktSize
		}
		p := tcpmodel.PadhyeInverse(rate, rtt, 4*rtt, size)
		first := int64(1 / math.Max(p, 1e-9))
		if first < 1 {
			first = 1
		}
		r.intervals = append(r.intervals, first)
	} else {
		closed := firstLost - r.eventSeq
		if closed < 1 {
			closed = 1
		}
		r.intervals = append([]int64{closed}, r.intervals...)
		if len(r.intervals) > r.NumIntervals {
			r.intervals = r.intervals[:r.NumIntervals]
		}
	}
	r.eventStart = now
	r.eventSeq = firstLost
	r.lossSinceFB = true
	// The specification sends feedback immediately when a new loss
	// event is detected.
	r.sendFeedback()
}

// openInterval returns the length, in packets, of the still-open loss
// interval (packets received since the current event began).
func (r *Receiver) openInterval() int64 {
	n := r.maxSeq - r.eventSeq
	if n < 1 {
		n = 1
	}
	return n
}

// avgInterval computes the WALI average loss interval: the maximum of
// the average with and without the open interval, so a long loss-free
// stretch raises the average but a fresh loss cannot lower it twice.
func (r *Receiver) avgInterval() float64 {
	k := r.NumIntervals
	hist := r.intervals
	discount := 1.0
	if r.HistoryDiscounting && len(hist) > 0 {
		var hsum, hw float64
		for i, v := range hist {
			if i >= k {
				break
			}
			hsum += float64(r.weights[i] * float64(v))
			hw += r.weights[i]
		}
		avgHist := hsum / hw
		open := float64(r.openInterval())
		if open > 2*avgHist && open > 0 {
			discount = math.Max(0.5, 2*avgHist/open)
		}
	}
	// With the open interval as I_0. Discounting scales the *weights* of
	// the closed (historical) intervals, shifting mass toward the long
	// open interval and so raising the average (RFC 3448 section 5.5).
	var sum0, w0 float64
	open := float64(r.openInterval())
	sum0 = r.weights[0] * open
	w0 = r.weights[0]
	for i, v := range hist {
		if i+1 >= k {
			break
		}
		dw := float64(r.weights[i+1] * discount)
		sum0 += float64(dw * float64(v))
		w0 += dw
	}
	// Without the open interval (no discounting: it only applies when
	// weighing history against the current good stretch).
	var sum1, w1 float64
	for i, v := range hist {
		if i >= k {
			break
		}
		sum1 += float64(r.weights[i] * float64(v))
		w1 += r.weights[i]
	}
	avg := math.Max(sum0/w0, sum1/w1)
	if avg < 1 {
		avg = 1
	}
	return avg
}

// recvRateNow estimates the current receive rate in bytes/s over the
// window since the last feedback.
func (r *Receiver) recvRateNow(now sim.Time) float64 {
	el := now - r.lastFBTime
	if el <= 0 {
		return r.lastRecvRate
	}
	return float64(r.fbBytes) / el
}

func (r *Receiver) scheduleFeedback() {
	r.fbTimer = r.Eng.ResetAfter(r.fbTimer, r.currentRTT(), r.fbFn)
}

// onFeedbackTimer is the periodic feedback tick. Per the specification,
// the timer only produces a report when data arrived since the previous
// one: reporting a zero receive rate for an empty window would let the
// sender's min(X_calc, 2*X_recv) cap pin the rate at the floor forever.
func (r *Receiver) onFeedbackTimer() {
	if r.fbBytes > 0 {
		r.sendFeedback()
	}
	r.scheduleFeedback()
}

// sendFeedback emits one feedback packet and resets the measurement
// window.
func (r *Receiver) sendFeedback() {
	now := r.Eng.Now()
	rate := r.recvRateNow(now)
	if rate > 0 || now > r.lastFBTime {
		r.lastRecvRate = rate
	}
	fb := r.Pool.NewFeedback()
	fb.LossEventRate = r.LossEventRate()
	fb.RecvRate = r.lastRecvRate
	fb.LossSeen = r.lossSinceFB
	pkt := r.Pool.Get()
	pkt.Flow = r.Flow
	pkt.Kind = netem.Feedback
	pkt.Size = cc.DefaultAckSize
	pkt.SentAt = now
	pkt.Echo = r.lastPktSent
	pkt.FB = fb
	r.Out.Handle(pkt)
	r.lossSinceFB = false
	r.fbBytes = 0
	r.lastFBTime = now
}
