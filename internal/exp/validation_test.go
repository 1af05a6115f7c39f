package exp

import (
	"math"
	"testing"

	"slowcc/internal/metrics"
	"slowcc/internal/netem"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

// runScripted runs one flow against a drop-every-nth link and returns
// its post-warmup receive rate (bits/s) and per-RTT send-rate series.
func runScripted(t *testing.T, algo AlgoSpec, n int, seed int64) (float64, []float64) {
	t.Helper()
	eng := sim.New(seed)
	d := topology.New(eng, topology.Config{
		Rate:        50e6,
		Seed:        seed,
		ForwardLoss: &netem.CountPattern{Intervals: []int{n - 1}},
	})
	f := algo.Make(eng, d, 1)
	eng.At(0, f.Sender.Start)
	rtt := d.PropRTT()
	m := metrics.NewMeter(eng, rtt, f.SentBytes)
	const warm, dur = 30.0, 150.0
	eng.RunUntil(warm)
	base := f.RecvBytes()
	eng.RunUntil(dur)
	rate := float64(f.RecvBytes()-base) * 8 / (dur - warm)
	rates := m.Rates()
	return rate, rates[int(warm/rtt):]
}

// TestSmoothnessMetricMatchesOneMinusB validates the paper's Section 4.3
// statement: under a periodic drop process, TCP(b)'s smoothness metric
// (smallest consecutive-RTT rate ratio) is about 1-b.
func TestSmoothnessMetricMatchesOneMinusB(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		b       float64
		wantMin float64 // 1-b, with tolerance below
	}{
		{0.5, 0.5},
		{0.125, 0.875},
	} {
		_, rates := runScripted(t, TCPAlgo(c.b), 200, 1)
		s := metrics.ComputeSmoothness(rates)
		// Self-clocking noise makes the realized minimum a bit lower
		// than the ideal 1-b; it must sit between (1-b)-0.25 and 1.
		if s.MinRatio > 1 || s.MinRatio < c.wantMin-0.25 {
			t.Errorf("TCP(b=%v) MinRatio = %v, want near %v", c.b, s.MinRatio, c.wantMin)
		}
		// And the slower variant must be strictly smoother.
		_ = s
	}
	_, r12 := runScripted(t, TCPAlgo(0.5), 200, 1)
	_, r18 := runScripted(t, TCPAlgo(0.125), 200, 1)
	if metrics.ComputeSmoothness(r18).CoV >= metrics.ComputeSmoothness(r12).CoV {
		t.Error("TCP(1/8) not smoother than TCP(1/2) under periodic loss")
	}
}

// TestInverseSqrtPScaling validates the response-function scaling: a 4x
// increase in the loss rate should halve TCP's throughput (1/sqrt(p)),
// well within a generous band.
func TestInverseSqrtPScaling(t *testing.T) {
	t.Parallel()
	lo, _ := runScripted(t, TCPAlgo(0.5), 400, 1) // p = 0.25%
	hi, _ := runScripted(t, TCPAlgo(0.5), 100, 1) // p = 1%
	ratio := lo / hi
	if ratio < 1.5 || ratio > 3.0 {
		t.Fatalf("rate(p/4)/rate(p) = %v, want ~2 per the square-root law", ratio)
	}
}

// TestTFRCResponsivenessGrowsWithK: under sudden persistent congestion,
// TFRC(k) with larger k takes longer to halve its sending rate (the
// paper's responsiveness notion: TFRC's is ~4-6 RTTs at the deployed k).
func TestTFRCResponsivenessGrowsWithK(t *testing.T) {
	t.Parallel()
	halveTime := func(k int) sim.Time {
		eng := sim.New(1)
		// Phase 1 lossless, then persistent heavy loss from t=40.
		d := topology.New(eng, topology.Config{
			Rate: 50e6,
			Seed: 1,
			ForwardLoss: &netem.TimedPattern{Phases: []netem.TimedPhase{
				{Duration: 40, EveryNth: 400},
				{Duration: 1e9, EveryNth: 8},
			}},
		})
		f := TFRCAlgo(TFRCOpts{K: k}).Make(eng, d, 1)
		eng.At(0, f.Sender.Start)
		eng.RunUntil(40)
		m := metrics.NewMeter(eng, 0.05, f.SentBytes)
		eng.RunUntil(40.5)
		// Baseline rate just before/at congestion onset.
		base := m.Rates()[0]
		eng.RunUntil(90)
		for i, r := range m.Rates() {
			if r < base/2 {
				return sim.Time(i) * 0.05
			}
		}
		return 50 // never halved within horizon
	}
	fast := halveTime(2)
	slow := halveTime(64)
	if slow <= fast {
		t.Fatalf("TFRC(64) halved in %v, not slower than TFRC(2) at %v", slow, fast)
	}
}

// TestAIMDFamilyThroughputOrderingUnderStaticLoss: under the same loss
// process, all TCP(b) variants should get comparable throughput (that
// is what TCP-compatible calibration means), certainly within 2x.
func TestAIMDFamilyThroughputOrderingUnderStaticLoss(t *testing.T) {
	t.Parallel()
	r12, _ := runScripted(t, TCPAlgo(0.5), 100, 1)
	r18, _ := runScripted(t, TCPAlgo(1.0/8), 100, 1)
	r164, _ := runScripted(t, TCPAlgo(1.0/64), 100, 1)
	for name, r := range map[string]float64{"TCP(1/8)": r18, "TCP(1/64)": r164} {
		ratio := r / r12
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%s/TCP(1/2) = %v under static loss, want within [0.5, 2]", name, ratio)
		}
	}
	if math.IsNaN(r12 + r18 + r164) {
		t.Fatal("NaN throughput")
	}
}
