// Package metrics implements the paper's measurement machinery: binned
// loss-rate monitoring at the bottleneck, the stabilization time and
// stabilization cost metrics (Section 4.1), per-flow throughput meters,
// delta-fair convergence times (Section 4.2.2), the f(k) utilization
// metric (Section 4.2.3), and rate-smoothness statistics (Section 4.3).
package metrics

import (
	"math"

	"slowcc/internal/netem"
	"slowcc/internal/sim"
)

// LossMonitor tallies packet arrivals and drops at a link in fixed-width
// time bins. Attach Tap() to the bottleneck link.
type LossMonitor struct {
	// Width is the bin width in seconds. The paper averages the loss
	// rate over ten RTTs: 0.5s at RTT 50ms.
	Width sim.Time

	arrivals []int64
	drops    []int64
}

// NewLossMonitor returns a monitor with the given bin width. Callers
// that know the run horizon should follow with EnsureHorizon so the
// per-packet tap never grows the bin arrays.
func NewLossMonitor(width sim.Time) *LossMonitor {
	return &LossMonitor{Width: width}
}

// EnsureHorizon pre-sizes the bin arrays to cover [0, t], so every tap
// invocation inside the horizon is two counter increments with no
// growth check taken. Safe to call at any point; it never shrinks.
func (m *LossMonitor) EnsureHorizon(t sim.Time) {
	if m.Width <= 0 || t <= 0 {
		return
	}
	m.grow(int(t / m.Width))
}

// grow extends the bin arrays through index i (amortized doubling, so
// un-pre-sized monitors keep linear total growth cost).
func (m *LossMonitor) grow(i int) {
	for len(m.arrivals) <= i {
		m.arrivals = append(m.arrivals, 0)
		m.drops = append(m.drops, 0)
	}
}

// Tap returns the link tap feeding this monitor: every arrival ends in
// exactly one enqueue or drop, and those are the two ops it counts.
func (m *LossMonitor) Tap() netem.Tap {
	return func(_ *netem.Link, op netem.TapOp, _ *netem.Packet, now sim.Time) {
		if op != netem.TapEnqueue && op != netem.TapDrop {
			return
		}
		i := int(now / m.Width)
		if i >= len(m.arrivals) {
			m.grow(i)
		}
		m.arrivals[i]++
		if op == netem.TapDrop {
			m.drops[i]++
		}
	}
}

// Bins returns the number of complete or started bins.
func (m *LossMonitor) Bins() int { return len(m.arrivals) }

// Rate returns the loss fraction in bin i (0 when the bin saw no
// arrivals or does not exist).
func (m *LossMonitor) Rate(i int) float64 {
	if i < 0 || i >= len(m.arrivals) || m.arrivals[i] == 0 {
		return 0
	}
	return float64(m.drops[i]) / float64(m.arrivals[i])
}

// RateOver returns the aggregate loss fraction over [t0, t1).
func (m *LossMonitor) RateOver(t0, t1 sim.Time) float64 {
	a, d := m.countsOver(t0, t1)
	if a == 0 {
		return 0
	}
	return float64(d) / float64(a)
}

func (m *LossMonitor) countsOver(t0, t1 sim.Time) (arrivals, drops int64) {
	i0 := int(t0 / m.Width)
	i1 := int(t1 / m.Width)
	for i := i0; i < i1 && i < len(m.arrivals); i++ {
		if i < 0 {
			continue
		}
		arrivals += m.arrivals[i]
		drops += m.drops[i]
	}
	return
}

// Stabilization is the result of the paper's Section 4.1 metric.
type Stabilization struct {
	// TimeRTTs is the stabilization time in round-trip times: how long
	// after the onset of congestion until the loss rate (averaged over
	// the monitor's bin width) returns to within 1.5 times its
	// steady-state value and stays there.
	TimeRTTs float64
	// Cost is the stabilization cost: TimeRTTs times the average loss
	// *fraction* during the stabilization interval. A cost of 1 equals
	// one full round-trip time's worth of packets dropped.
	Cost float64
	// AvgLoss is the average loss fraction during the interval.
	AvgLoss float64
	// Stabilized reports whether the loss rate came back down within
	// the observed horizon at all.
	Stabilized bool
}

// Stabilization computes the metric: steady is the steady-state loss
// rate for the congested condition (measured beforehand), onset is when
// the period of high congestion begins, horizon bounds the search, and
// rtt converts to round-trip times. A bin counts as stabilized when its
// loss rate is at most 1.5*steady and the following `hold` bins agree
// (hold=3 here, making the metric robust to single-bin dips).
func (m *LossMonitor) Stabilization(onset, horizon sim.Time, steady float64, rtt sim.Time) Stabilization {
	thresh := 1.5 * steady
	i0 := int(onset / m.Width)
	const hold = 3
	for i := i0; i < len(m.arrivals); i++ {
		if float64(i+1)*float64(m.Width) > float64(horizon) {
			break
		}
		ok := true
		for j := i; j < i+hold; j++ {
			if j >= len(m.arrivals) {
				break
			}
			if m.Rate(j) > thresh {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		end := sim.Time(i+1) * m.Width
		dur := end - onset
		if dur < m.Width {
			dur = m.Width
		}
		avg := m.RateOver(onset, end)
		rtts := float64(dur) / float64(rtt)
		return Stabilization{
			TimeRTTs:   rtts,
			Cost:       rtts * avg,
			AvgLoss:    avg,
			Stabilized: true,
		}
	}
	// Never stabilized: charge the whole horizon.
	avg := m.RateOver(onset, horizon)
	rtts := float64(horizon-onset) / float64(rtt)
	return Stabilization{TimeRTTs: rtts, Cost: rtts * avg, AvgLoss: avg}
}

// Meter samples a monotone counter on a fixed period, yielding a rate
// time series. It drives itself on the engine.
type Meter struct {
	// Width is the sampling period.
	Width sim.Time

	read  func() int64
	last  int64
	rates []float64
}

// NewMeter starts sampling read() every width seconds on eng. The first
// sample window starts at the time of the call.
func NewMeter(eng *sim.Engine, width sim.Time, read func() int64) *Meter {
	m := &Meter{Width: width, read: read, last: read()}
	var tick func()
	tick = func() {
		cur := m.read()
		m.rates = append(m.rates, float64(cur-m.last)/float64(width))
		m.last = cur
		eng.After(width, tick)
	}
	eng.After(width, tick)
	return m
}

// Rates returns the per-bin rates (counter units per second).
func (m *Meter) Rates() []float64 { return m.rates }

// ConvergenceTime returns the paper's delta-fair convergence time for
// two rate series a and b sampled on the same grid: the time from
// `start` until |a-b|/(a+b) <= delta holds and keeps holding for `hold`
// consecutive bins. It returns (time since start, true) or (0, false)
// if convergence is never reached within the series.
func ConvergenceTime(a, b *Meter, start sim.Time, delta float64, hold int) (sim.Time, bool) {
	if hold < 1 {
		hold = 1
	}
	n := len(a.rates)
	if len(b.rates) < n {
		n = len(b.rates)
	}
	i0 := int(start / a.Width)
	run := 0
	for i := i0; i < n; i++ {
		x, y := a.rates[i], b.rates[i]
		if x+y > 0 && math.Abs(x-y)/(x+y) <= delta {
			run++
			if run >= hold {
				end := sim.Time(i+1) * a.Width
				return end - start, true
			}
		} else {
			run = 0
		}
	}
	return 0, false
}

// Smoothness summarizes the variability of a rate series.
type Smoothness struct {
	// MinRatio is the paper's smoothness metric: the smallest ratio
	// between the sending rates in two consecutive bins (1 is perfectly
	// smooth; TCP(b) scores about 1-b).
	MinRatio float64
	// MaxRatio is the largest consecutive increase ratio.
	MaxRatio float64
	// CoV is the coefficient of variation across all positive bins.
	CoV float64
}

// ComputeSmoothness evaluates a rate series, ignoring leading zeros and
// bins where either neighbor is zero (a silent bin is starvation, not
// un-smoothness; starvation shows up in throughput metrics instead).
func ComputeSmoothness(rates []float64) Smoothness {
	s := Smoothness{MinRatio: 1, MaxRatio: 1}
	var mean, m2 float64
	n := 0
	for i, r := range rates {
		if r <= 0 {
			continue
		}
		n++
		d := r - mean
		mean += d / float64(n)
		m2 += d * (r - mean)
		if i > 0 && rates[i-1] > 0 {
			ratio := r / rates[i-1]
			if ratio < s.MinRatio {
				s.MinRatio = ratio
			}
			if ratio > s.MaxRatio {
				s.MaxRatio = ratio
			}
		}
	}
	if n > 1 && mean > 0 {
		s.CoV = math.Sqrt(m2/float64(n-1)) / mean
	}
	return s
}

// Utilization returns achieved/capacity, where achieved is in bytes over
// the interval and capacity in bits per second.
func Utilization(bytes int64, rate float64, interval sim.Time) float64 {
	if rate <= 0 || interval <= 0 {
		return 0
	}
	return float64(bytes) * 8 / (rate * float64(interval))
}

// JainIndex returns Jain's fairness index of the given allocations:
// (sum x)^2 / (n * sum x^2), 1 when perfectly equal.
func JainIndex(xs []float64) float64 {
	var s, s2 float64
	for _, x := range xs {
		s += x
		s2 += x * x
	}
	if s2 == 0 {
		return 0
	}
	return s * s / (float64(len(xs)) * s2)
}

// QueueMonitor samples a queue's instantaneous length on a fixed period
// (driven by the engine), supporting the queue-dynamics analyses the
// paper cites: smoother senders should induce steadier queues.
type QueueMonitor struct {
	// Width is the sampling period.
	Width sim.Time

	samples []float64
}

// NewQueueMonitor starts sampling length() every width seconds on eng.
func NewQueueMonitor(eng *sim.Engine, width sim.Time, length func() int) *QueueMonitor {
	m := &QueueMonitor{Width: width}
	var tick func()
	tick = func() {
		m.samples = append(m.samples, float64(length()))
		eng.After(width, tick)
	}
	eng.After(width, tick)
	return m
}

// Summary returns descriptive statistics over samples [i0, len).
func (m *QueueMonitor) Summary(i0 int) Summary {
	if i0 < 0 {
		i0 = 0
	}
	if i0 >= len(m.samples) {
		return Summary{}
	}
	return Summarize(m.samples[i0:])
}
