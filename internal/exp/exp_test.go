package exp

import (
	"math"
	"strings"
	"testing"

	"slowcc/internal/sim"
)

// quickStab is a compressed Figure 3/4/5 timeline for tests.
func quickStab() StabilizationConfig {
	return StabilizationConfig{OffAt: 50, OnAt: 60, End: 110, Seed: 1}
}

func TestStabilizationScenarioSane(t *testing.T) {
	t.Parallel()
	r := runStabilization(noCell, quickStab(), TCPAlgo(0.5))
	if r.Steady <= 0 || r.Steady > 0.6 {
		t.Fatalf("steady loss %v outside a plausible congested range", r.Steady)
	}
	if !r.Stab.Stabilized {
		t.Fatal("standard TCP did not stabilize after the CBR restart")
	}
	if len(r.LossTrace) == 0 {
		t.Fatal("no loss trace recorded")
	}
}

func TestSelfClockingReducesStabilizationCost(t *testing.T) {
	t.Parallel()
	// The paper's headline: TFRC(256) without self-clocking has a
	// stabilization cost orders of magnitude above TCP; the conservative
	// option repairs it. The compressed timeline keeps the contrast.
	noSC := runStabilization(noCell, quickStab(), TFRCAlgo(TFRCOpts{K: 256}))
	withSC := runStabilization(noCell, quickStab(), TFRCAlgo(TFRCOpts{K: 256, Conservative: true}))
	if noSC.Stab.Cost <= withSC.Stab.Cost {
		t.Fatalf("self-clocking did not help: cost %v (no SC) vs %v (SC)",
			noSC.Stab.Cost, withSC.Stab.Cost)
	}
}

func TestFig3AndRender(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	cfg := Fig3Config{
		Scenario: quickStab(),
		Algos:    []AlgoSpec{TCPAlgo(1.0 / 64), TFRCAlgo(TFRCOpts{K: 64})},
	}
	res := sw.Fig3(cfg)
	if len(res) != 2 {
		t.Fatalf("Fig3 returned %d results", len(res))
	}
	out := RenderFig3(res)
	for _, want := range []string{"TCP(1/64)", "TFRC(64)", "drop rate"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFig45SweepShape(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	cfg := Fig45Config{Scenario: quickStab(), MaxGamma: 2}
	pts := sw.Fig45(cfg)
	// 5 families x gammas {1, 2}.
	if len(pts) != 10 {
		t.Fatalf("Fig45 returned %d points, want 10", len(pts))
	}
	fams := map[string]bool{}
	for _, p := range pts {
		fams[p.Family] = true
		if p.Result.Stab.TimeRTTs < 0 || p.Result.Stab.Cost < 0 {
			t.Fatalf("negative stabilization metric: %+v", p)
		}
	}
	if len(fams) != 5 {
		t.Fatalf("families seen: %v, want 5", fams)
	}
	out := RenderFig45(pts)
	if !strings.Contains(out, "Figure 4") || !strings.Contains(out, "Figure 5") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}

func TestFig6FlashCrowdGrabsBandwidth(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	cfg := Fig6Config{
		Backgrounds:   []AlgoSpec{TCPAlgo(0.5)},
		Flows:         4,
		CrowdStart:    10,
		CrowdDuration: 2,
		CrowdRate:     100,
		End:           25,
		Seed:          1,
	}
	res := sw.Fig6(cfg)
	if len(res) != 1 {
		t.Fatalf("%d results", len(res))
	}
	r := res[0]
	if r.CrowdCompleted < 100 {
		t.Fatalf("only %d/200 crowd transfers completed", r.CrowdCompleted)
	}
	// Crowd throughput must spike above 1 Mbps somewhere in its window.
	peak := 0.0
	for _, tp := range r.CrowdRate {
		if tp.T >= 10 && tp.T <= 14 && tp.V > peak {
			peak = tp.V
		}
	}
	if peak < 1e6 {
		t.Fatalf("crowd peak %v bps, want > 1 Mbps", peak)
	}
	if !strings.Contains(RenderFig6(cfg, res), "flash crowd") {
		t.Fatal("render missing title")
	}
}

func TestFairnessTCPBeatsTFRCUnderOscillation(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	// Figure 7's long-term claim at a mid-range period: varying network
	// conditions favor TCP over TFRC, and never the reverse.
	cfg := DefaultFig7()
	cfg.Periods = []sim.Time{4}
	cfg.Warmup = 15
	cfg.Measure = 60
	cfg.Seed = 1
	pts := sw.Fairness(cfg)
	if len(pts) != 1 {
		t.Fatalf("%d points", len(pts))
	}
	p := pts[0]
	if p.AMean <= 0 || p.BMean <= 0 {
		t.Fatalf("degenerate throughput: %+v", p)
	}
	if p.BMean > p.AMean*1.15 {
		t.Fatalf("TFRC (%v) beat TCP (%v) long-term under oscillation; the paper never observed this", p.BMean, p.AMean)
	}
	if p.Utilization <= 0.3 || p.Utilization > 1.05 {
		t.Fatalf("utilization %v implausible", p.Utilization)
	}
	out := RenderFairness("Figure 7", cfg, pts)
	if !strings.Contains(out, "TFRC(6)") {
		t.Fatalf("render missing algo name:\n%s", out)
	}
}

func TestConvergenceFastForStandardTCP(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	cfg := ConvergenceConfig{
		SecondStart: 15,
		Horizon:     120,
		Seeds:       []int64{1, 2},
	}
	r := sw.convergence(cfg, []AlgoSpec{TCPAlgo(0.5)})[0]
	if r.Converged == 0 {
		t.Fatal("two standard TCP flows never reached 0.1-fairness in 120s")
	}
	if r.MeanTime > 60 {
		t.Fatalf("TCP(1/2) took %vs to converge, expected well under a minute", r.MeanTime)
	}
}

func TestConvergenceSlowerForSmallB(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	mk := func(b float64) sim.Time {
		cfg := ConvergenceConfig{
			SecondStart: 15,
			Horizon:     200,
			Seeds:       []int64{1},
		}
		r := sw.convergence(cfg, []AlgoSpec{TCPAlgo(b)})[0]
		if r.Converged == 0 {
			return 1e9 // treat as beyond horizon
		}
		return r.MeanTime
	}
	fast := mk(0.5)
	slow := mk(1.0 / 32)
	if slow <= fast {
		t.Fatalf("TCP(1/32) converged in %v, faster than TCP(1/2) at %v", slow, fast)
	}
}

func TestFig11ModelShape(t *testing.T) {
	t.Parallel()
	pts := Fig11(0.1, 0.1, 256)
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].ACKs <= pts[i-1].ACKs {
			t.Fatalf("E[ACKs] must grow as b shrinks: %+v then %+v", pts[i-1], pts[i])
		}
	}
	if !strings.Contains(RenderFig11(0.1, 0.1, pts), "E[ACKs]") {
		t.Fatal("render incomplete")
	}
}

func TestFig13SlownessReducesFk(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	cfg := Fig13Config{StopAt: 40, MaxGamma: 8, Seed: 1}
	pts := sw.Fig13(cfg)
	byKey := map[string]Fig13Point{}
	for _, p := range pts {
		byKey[p.Family+string(rune('0'+p.Gamma))] = p
		for _, f := range p.F {
			if f < 0 || f > 1.1 {
				t.Fatalf("f(k) out of range: %+v", p)
			}
		}
	}
	// The equation-bound TFRC must reclaim the doubled bandwidth more
	// slowly than self-clocked TCP: its loss-interval history has to
	// age out first. (TCP(1/2) vs TCP(1/8) differ by only a few RTTs of
	// window growth here, within RED noise, so the robust paper-shape
	// assertion is TCP vs TFRC.)
	tcpFast := byKey["TCP(1/b)"+string(rune('0'+2))]
	tfrcSlow := byKey["TFRC(b)"+string(rune('0'+8))]
	if tfrcSlow.F[20] >= tcpFast.F[20] {
		t.Fatalf("TFRC(8) f(20)=%v >= TCP(1/2) f(20)=%v", tfrcSlow.F[20], tcpFast.F[20])
	}
	if !strings.Contains(RenderFig13(cfg, pts), "f(20)") {
		t.Fatal("render incomplete")
	}
}

func TestOscillationQuick(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	cfg := OscillationConfig{
		Periods: []sim.Time{0.4, 6.4},
		Warmup:  10,
		Measure: 25,
		Seed:    1,
	}
	pts := sw.Oscillation(cfg)
	if len(pts) != 6 {
		t.Fatalf("%d points, want 6", len(pts))
	}
	for _, p := range pts {
		if p.Throughput <= 0.2 || p.Throughput > 1.05 {
			t.Fatalf("throughput fraction %v implausible for %s @%v", p.Throughput, p.Algo, p.Period)
		}
		if p.DropRate < 0 || p.DropRate > 0.5 {
			t.Fatalf("drop rate %v implausible", p.DropRate)
		}
	}
	if !strings.Contains(RenderOscillation("Figure 14", cfg, pts), "drop rate") {
		t.Fatal("render incomplete")
	}
}

func TestSmoothnessMildPatternFavorsTFRC(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	cfg := DefaultFig17()
	cfg.Duration = 80
	cfg.Seed = 1
	res := sw.RunSmoothness(cfg)
	if len(res) != 2 {
		t.Fatalf("%d results", len(res))
	}
	tfrcRes, tcpRes := res[0], res[1]
	// The paper: TFRC is considerably smoother than TCP(1/8) on the
	// pattern designed to fit its averaging.
	if tfrcRes.Smooth.CoV >= tcpRes.Smooth.CoV {
		t.Fatalf("TFRC CoV %v not smoother than TCP(1/8) CoV %v",
			tfrcRes.Smooth.CoV, tcpRes.Smooth.CoV)
	}
	if tfrcRes.ThroughputMbps <= 0 || tcpRes.ThroughputMbps <= 0 {
		t.Fatal("zero throughput")
	}
	if !strings.Contains(RenderSmoothness("Figure 17", res), "minRatio") {
		t.Fatal("render incomplete")
	}
}

func TestSmoothnessSeverePatternHurtsTFRC(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	cfg := DefaultFig18()
	cfg.Duration = 80
	cfg.Seed = 1
	res := sw.RunSmoothness(cfg)
	tfrcRes := res[0]
	tcp18 := res[1]
	// The adversarial pattern exploits TFRC's long memory: TFRC must not
	// beat TCP(1/8) in throughput there (the paper finds it considerably
	// worse).
	if tfrcRes.ThroughputMbps > tcp18.ThroughputMbps*1.1 {
		t.Fatalf("TFRC %v Mbps beat TCP(1/8) %v Mbps on its worst-case pattern",
			tfrcRes.ThroughputMbps, tcp18.ThroughputMbps)
	}
}

func TestFig20ModelTable(t *testing.T) {
	t.Parallel()
	pts := Fig20(nil)
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	for _, p := range pts {
		// The bracket property holds on the paper's plotted range; the
		// two curves meet above p ~ 0.85.
		if p.P >= 0.5 && p.P <= 0.8 {
			if !(p.Reno < p.AIMDTimeouts) {
				t.Fatalf("at p=%v Reno %v must lower-bound AIMD+timeouts %v", p.P, p.Reno, p.AIMDTimeouts)
			}
		}
		if math.IsNaN(p.Reno) {
			t.Fatalf("Reno NaN at %+v", p)
		}
		// Each model is defined exactly on its validity range.
		if (p.P <= 1.0/3) != !math.IsNaN(p.PureAIMD) {
			t.Fatalf("pure AIMD validity gating wrong at %+v", p)
		}
		if (p.P >= 0.5) != !math.IsNaN(p.AIMDTimeouts) {
			t.Fatalf("AIMD+timeouts validity gating wrong at %+v", p)
		}
	}
	if !strings.Contains(RenderFig20(pts), "pure AIMD") {
		t.Fatal("render incomplete")
	}
}

func TestGammaSteps(t *testing.T) {
	t.Parallel()
	got := gammaSteps(256)
	want := []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	if len(got) != len(want) {
		t.Fatalf("gammaSteps = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("gammaSteps = %v", got)
		}
	}
}

func TestFracName(t *testing.T) {
	t.Parallel()
	cases := map[float64]string{0.5: "1/2", 0.125: "1/8", 1.0 / 256: "1/256", 0.3: "0.3"}
	for b, want := range cases {
		if got := fracName(b); got != want {
			t.Fatalf("fracName(%v) = %q, want %q", b, got, want)
		}
	}
}
