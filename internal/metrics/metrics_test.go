package metrics

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"slowcc/internal/netem"
	"slowcc/internal/sim"
)

// arrivalTap feeds m's link tap one arrival at a time: accepted is the
// enqueue op, refused the drop op.
func arrivalTap(m *LossMonitor) func(p *netem.Packet, accepted bool, now sim.Time) {
	tap := m.Tap()
	return func(p *netem.Packet, accepted bool, now sim.Time) {
		op := netem.TapEnqueue
		if !accepted {
			op = netem.TapDrop
		}
		tap(nil, op, p, now)
	}
}

func TestLossMonitorBinning(t *testing.T) {
	m := NewLossMonitor(0.5)
	tap := arrivalTap(m)
	p := &netem.Packet{Size: 1000}
	// Bin 0: 4 arrivals, 1 drop. Bin 2: 2 arrivals, 2 drops.
	tap(p, true, 0.1)
	tap(p, true, 0.2)
	tap(p, true, 0.3)
	tap(p, false, 0.4)
	tap(p, false, 1.2)
	tap(p, false, 1.3)
	// The rest of an accepted packet's life is not an arrival.
	for _, op := range []netem.TapOp{netem.TapTxStart, netem.TapTxEnd, netem.TapDeliver, netem.TapSettled} {
		m.Tap()(nil, op, p, 0.1)
	}
	if got := m.Rate(0); got != 0.25 {
		t.Fatalf("Rate(0) = %v, want 0.25", got)
	}
	if got := m.Rate(1); got != 0 {
		t.Fatalf("Rate(1) = %v, want 0 (empty bin)", got)
	}
	if got := m.Rate(2); got != 1 {
		t.Fatalf("Rate(2) = %v, want 1", got)
	}
	if got := m.RateOver(0, 1.5); got != 0.5 {
		t.Fatalf("RateOver = %v, want 3/6", got)
	}
	if m.Rate(99) != 0 || m.Rate(-1) != 0 {
		t.Fatal("out-of-range bins must read 0")
	}
}

func TestLossMonitorEnsureHorizon(t *testing.T) {
	m := NewLossMonitor(0.5)
	if m.Bins() != 0 {
		t.Fatalf("fresh monitor has %d bins, want 0", m.Bins())
	}
	m.EnsureHorizon(10)
	// [0,10] at width 0.5 is bins 0..20 inclusive.
	if m.Bins() != 21 {
		t.Fatalf("Bins after EnsureHorizon(10) = %d, want 21", m.Bins())
	}
	// Pre-sized but untouched bins read 0, in and out of range.
	for _, i := range []int{0, 7, 20, 21, -1} {
		if got := m.Rate(i); got != 0 {
			t.Fatalf("Rate(%d) on unseen bin = %v, want 0", i, got)
		}
	}
	if got := m.RateOver(0, 10); got != 0 {
		t.Fatalf("RateOver on unseen monitor = %v, want 0", got)
	}
	// Never shrinks; no-ops on nonsense arguments.
	m.EnsureHorizon(1)
	m.EnsureHorizon(0)
	m.EnsureHorizon(-5)
	if m.Bins() != 21 {
		t.Fatalf("Bins shrank to %d", m.Bins())
	}
	// Taps inside the horizon land without growth; outside still grows.
	tap := arrivalTap(m)
	p := &netem.Packet{Size: 1000}
	tap(p, false, 9.9)
	if m.Bins() != 21 {
		t.Fatalf("in-horizon tap grew bins to %d", m.Bins())
	}
	if got := m.Rate(19); got != 1 {
		t.Fatalf("Rate(19) = %v, want 1", got)
	}
	tap(p, true, 15.2)
	if m.Bins() != 31 {
		t.Fatalf("out-of-horizon tap grew bins to %d, want 31", m.Bins())
	}
}

func TestLossMonitorEnsureHorizonZeroWidth(t *testing.T) {
	m := &LossMonitor{}
	m.EnsureHorizon(10) // Width 0 must not divide by zero or spin
	if m.Bins() != 0 {
		t.Fatalf("zero-width monitor grew to %d bins", m.Bins())
	}
}

func TestStabilizationImmediate(t *testing.T) {
	m := NewLossMonitor(0.5)
	tap := arrivalTap(m)
	p := &netem.Packet{}
	// Steady 2% loss throughout; onset at t=10 changes nothing.
	for i := 0; i < 3000; i++ {
		tap(p, i%50 != 0, sim.Time(i)*0.01)
	}
	st := m.Stabilization(10, 30, 0.02, 0.05)
	if !st.Stabilized {
		t.Fatal("steady loss must count as immediately stabilized")
	}
	if st.TimeRTTs > 15 {
		t.Fatalf("stabilization took %v RTTs with no transient, want ~1 bin", st.TimeRTTs)
	}
}

func TestStabilizationAfterSpike(t *testing.T) {
	m := NewLossMonitor(0.5)
	tap := arrivalTap(m)
	p := &netem.Packet{}
	emit := func(t0, t1 sim.Time, lossEvery int) {
		for ts := t0; ts < t1; ts += 0.001 {
			n := int(ts * 1000)
			tap(p, lossEvery == 0 || n%lossEvery != 0, ts)
		}
	}
	emit(0, 10, 50)  // steady 2%
	emit(10, 15, 2)  // 50% spike for 5 seconds
	emit(15, 40, 50) // recovered
	st := m.Stabilization(10, 40, 0.02, 0.05)
	if !st.Stabilized {
		t.Fatal("loss recovered but Stabilization says no")
	}
	// Should detect ~5s = 100 RTTs.
	if st.TimeRTTs < 80 || st.TimeRTTs > 130 {
		t.Fatalf("stabilization time %v RTTs, want ~100", st.TimeRTTs)
	}
	// Cost ~ 100 RTTs * ~0.5 avg loss ~ 50.
	if st.Cost < 25 || st.Cost > 75 {
		t.Fatalf("stabilization cost %v, want ~50", st.Cost)
	}
}

func TestStabilizationNeverRecovers(t *testing.T) {
	m := NewLossMonitor(0.5)
	tap := arrivalTap(m)
	p := &netem.Packet{}
	for ts := sim.Time(0); ts < 20; ts += 0.001 {
		tap(p, int(ts*1000)%2 != 0, ts) // permanent 50% loss
	}
	st := m.Stabilization(5, 20, 0.02, 0.05)
	if st.Stabilized {
		t.Fatal("permanent overload reported as stabilized")
	}
	if st.TimeRTTs != (20-5)/0.05 {
		t.Fatalf("unstabilized time %v RTTs, want full horizon 300", st.TimeRTTs)
	}
}

func TestMeterSamplesRates(t *testing.T) {
	eng := sim.New(1)
	var counter int64
	m := NewMeter(eng, 1.0, func() int64 { return counter })
	// counter grows 10/s for 5s, then 20/s for 5s.
	var drive func()
	drive = func() {
		if eng.Now() < 5 {
			counter += 1
		} else {
			counter += 2
		}
		eng.After(0.1, drive)
	}
	eng.At(0.05, drive)
	eng.RunUntil(10.5)
	r := m.Rates()
	if len(r) < 10 {
		t.Fatalf("%d bins, want >= 10", len(r))
	}
	if math.Abs(r[2]-10) > 1 {
		t.Fatalf("bin 2 rate = %v, want ~10", r[2])
	}
	if math.Abs(r[8]-20) > 2 {
		t.Fatalf("bin 8 rate = %v, want ~20", r[8])
	}
}

func TestConvergenceTime(t *testing.T) {
	a := &Meter{Width: 1, rates: []float64{10, 9, 8, 7, 6, 5.4, 5.2, 5.1, 5.05, 5}}
	b := &Meter{Width: 1, rates: []float64{0, 1, 2, 3, 4, 4.6, 4.8, 4.9, 4.95, 5}}
	// delta=0.1: |a-b|/(a+b) <= 0.1 first at index 5 (0.8/10=0.08).
	d, ok := ConvergenceTime(a, b, 0, 0.1, 3)
	if !ok {
		t.Fatal("convergence not detected")
	}
	// Hold of 3 bins ending at index 7 -> time = 8.
	if d != 8 {
		t.Fatalf("convergence time %v, want 8", d)
	}
	_, ok = ConvergenceTime(a, b, 0, 0.001, 3)
	if ok {
		t.Fatal("impossible delta reported as converged")
	}
}

func TestComputeSmoothness(t *testing.T) {
	// Constant rate: perfectly smooth.
	s := ComputeSmoothness([]float64{5, 5, 5, 5})
	if s.MinRatio != 1 || s.MaxRatio != 1 || s.CoV != 0 {
		t.Fatalf("constant series smoothness %+v", s)
	}
	// A halving: MinRatio 0.5 (TCP-like sawtooth).
	s = ComputeSmoothness([]float64{8, 4, 5, 6})
	if s.MinRatio != 0.5 {
		t.Fatalf("MinRatio = %v, want 0.5", s.MinRatio)
	}
	if math.Abs(s.MaxRatio-1.25) > 1e-12 {
		t.Fatalf("MaxRatio = %v, want 1.25", s.MaxRatio)
	}
	// Zeros are skipped, not treated as infinite ratios.
	s = ComputeSmoothness([]float64{0, 10, 0, 10, 10})
	if s.MinRatio != 1 || s.MaxRatio != 1 {
		t.Fatalf("zero-adjacent bins must be ignored, got %+v", s)
	}
}

func TestUtilizationAndJain(t *testing.T) {
	// 1.25 MB over 1s on a 10 Mbps link = 100%.
	if got := Utilization(1250000, 10e6, 1); got != 1 {
		t.Fatalf("Utilization = %v, want 1", got)
	}
	if Utilization(1, 0, 1) != 0 || Utilization(1, 1, 0) != 0 {
		t.Fatal("degenerate utilization must be 0")
	}
	if got := JainIndex([]float64{1, 1, 1, 1}); got != 1 {
		t.Fatalf("JainIndex equal = %v, want 1", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); got != 0.25 {
		t.Fatalf("JainIndex single = %v, want 0.25", got)
	}
}

// Property: Jain's index lies in (0, 1] for any non-degenerate
// allocation and equals 1 iff all equal.
func TestPropertyJainBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		any := false
		for i, r := range raw {
			xs[i] = float64(r)
			if r > 0 {
				any = true
			}
		}
		j := JainIndex(xs)
		if !any {
			return j == 0
		}
		return j > 0 && j <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: smoothness MinRatio <= 1 <= MaxRatio always.
func TestPropertySmoothnessOrdering(t *testing.T) {
	f := func(raw []uint8) bool {
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		s := ComputeSmoothness(xs)
		return s.MinRatio <= 1 && s.MaxRatio >= 1 && s.MinRatio > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueMonitorSamples(t *testing.T) {
	eng := sim.New(1)
	length := 0
	m := NewQueueMonitor(eng, 0.1, func() int { return length })
	eng.At(0.55, func() { length = 10 })
	eng.RunUntil(1.05)
	s := m.samples
	if len(s) != 10 {
		t.Fatalf("%d samples in 1s at 0.1s period, want 10", len(s))
	}
	if s[0] != 0 || s[9] != 10 {
		t.Fatalf("samples %v: early must be 0, late 10", s)
	}
	sum := m.Summary(0)
	if sum.Max != 10 || sum.Min != 0 {
		t.Fatalf("summary %+v", sum)
	}
	if m.Summary(100).N != 0 {
		t.Fatal("out-of-range summary must be empty")
	}
}

// A meter's tick is an engine-owned timer, recycled as it fires, so a
// thousand ticks on an engine that carries nothing else allocate only
// the sample slice's doublings, not a timer each.
func TestMeterTickAllocatesNoTimer(t *testing.T) {
	const ticks, width = 1000, 0.01
	for _, tc := range []struct {
		name  string
		start func(*sim.Engine) func() int
	}{
		{"Meter", func(eng *sim.Engine) func() int {
			m := NewMeter(eng, width, func() int64 { return 0 })
			return func() int { return len(m.Rates()) }
		}},
		{"QueueMonitor", func(eng *sim.Engine) func() int {
			m := NewQueueMonitor(eng, width, func() int { return 0 })
			return func() int { return len(m.samples) }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New(1)
			samples := tc.start(eng)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for samples() < ticks {
				eng.RunUntil(eng.Now() + width)
			}
			runtime.ReadMemStats(&m1)
			if got := m1.Mallocs - m0.Mallocs; got > 16 {
				t.Fatalf("%d ticks allocated %d objects, want at most the sample slice's doublings", ticks, got)
			}
		})
	}
}
