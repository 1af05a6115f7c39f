package slowcc_test

import (
	"math"
	"strings"
	"testing"

	"slowcc"
	"slowcc/internal/exp"
	"slowcc/internal/trace"
)

func TestPublicQuickstartFlow(t *testing.T) {
	// Seed 2 gives a representative steady-sharing realization; a few
	// seeds hit a startup loss burst that parks TFRC in its
	// slowly-responsive backoff past the 30s horizon (see Example).
	eng := slowcc.NewEngine(2)
	d := slowcc.NewDumbbell(eng, slowcc.DumbbellConfig{Rate: 10e6, Seed: 2})
	mon := slowcc.NewLossMonitor(0.5)
	d.Fwd[0].AddTap(mon.Tap())

	tcp := slowcc.TCP(0.5).Make(eng, d, 1)
	tfrc := slowcc.TFRC(slowcc.TFRCOptions{K: 8, HistoryDiscounting: true}).Make(eng, d, 2)
	eng.At(0, tcp.Sender.Start)
	eng.At(0, tfrc.Sender.Start)
	eng.RunUntil(30)

	total := float64(tcp.RecvBytes()+tfrc.RecvBytes()) * 8 / (10e6 * 30)
	if total < 0.8 {
		t.Fatalf("combined utilization %.2f, want > 0.8", total)
	}
	ratio := float64(tcp.RecvBytes()) / float64(tfrc.RecvBytes())
	if ratio < 0.4 || ratio > 3 {
		t.Fatalf("TCP:TFRC split %.2f, want TCP-compatible sharing", ratio)
	}
	if mon.RateOver(0, 30) <= 0 {
		t.Fatal("no losses at a saturated bottleneck")
	}
}

func TestPublicAlgorithmNames(t *testing.T) {
	cases := []struct {
		algo slowcc.Algorithm
		want string
	}{
		{slowcc.TCP(0.5), "TCP(1/2)"},
		{slowcc.TCP(1.0 / 256), "TCP(1/256)"},
		{exp.SQRTAlgo(0.5), "SQRT(1/2)"},
		{exp.IIADAlgo(0.5), "IIAD(1/2)"},
		{exp.RAPAlgo(0.125), "RAP(1/8)"},
		{slowcc.TFRC(slowcc.TFRCOptions{K: 6}), "TFRC(6)"},
		{slowcc.TFRC(slowcc.TFRCOptions{K: 256, Conservative: true}), "TFRC(256)+SC"},
		{exp.TEARAlgo(0), "TEAR"},
		{exp.TEARAlgo(0.05), "TEAR(0.05)"},
		{exp.ECNTCPAlgo(0.5), "ECN-TCP(1/2)"},
	}
	for _, c := range cases {
		if c.algo.Name != c.want {
			t.Errorf("algorithm name %q, want %q", c.algo.Name, c.want)
		}
	}
}

func TestPublicTEAROnDumbbell(t *testing.T) {
	eng := slowcc.NewEngine(1)
	d := slowcc.NewDumbbell(eng, slowcc.DumbbellConfig{Rate: 10e6, Seed: 2})
	// The algorithms without a constructor here are reached by name.
	tear, err := slowcc.ParseAlgo("tear")
	if err != nil {
		t.Fatal(err)
	}
	f := tear.Make(eng, d, 1)
	eng.At(0, f.Sender.Start)
	eng.RunUntil(60)
	util := float64(f.RecvBytes()) * 8 / (10e6 * 60)
	if util < 0.5 {
		t.Fatalf("TEAR utilization %.2f via public API, want > 0.5", util)
	}
}

func TestPublicECNScenario(t *testing.T) {
	eng := slowcc.NewEngine(1)
	d := slowcc.NewDumbbell(eng, slowcc.DumbbellConfig{Rate: 10e6, ECN: true, Seed: 3})
	f := exp.ECNTCPAlgo(0.5).Make(eng, d, 1)
	eng.At(0, f.Sender.Start)
	eng.RunUntil(30)
	util := float64(f.RecvBytes()) * 8 / (10e6 * 30)
	if util < 0.8 {
		t.Fatalf("ECN TCP utilization %.2f via public API, want > 0.8", util)
	}
}

func TestPublicScriptedLoss(t *testing.T) {
	eng := slowcc.NewEngine(1)
	d := slowcc.NewDumbbell(eng, slowcc.DumbbellConfig{
		Rate:        50e6,
		Seed:        4,
		ForwardLoss: &slowcc.CountPattern{Intervals: []int{100}},
	})
	f := slowcc.TCP(0.5).Make(eng, d, 1)
	eng.At(0, f.Sender.Start)
	eng.RunUntil(30)
	if d.Filters[0] == nil || d.Filters[0].Drops == 0 {
		t.Fatal("scripted pattern never dropped")
	}
	// p ~ 1%: throughput far below the 50 Mbps link.
	rate := float64(f.RecvBytes()) * 8 / 30
	if rate > 25e6 {
		t.Fatalf("rate %v under 1%% scripted loss looks uncapped", rate)
	}
	if rate < 0.5e6 {
		t.Fatalf("rate %v under 1%% scripted loss looks dead", rate)
	}
}

func TestPublicExperimentRoundTrip(t *testing.T) {
	r := new(exp.Sweep).Fig3(exp.Fig3Config{
		Scenario: exp.StabilizationConfig{OffAt: 30, OnAt: 36, End: 70, Seed: 1},
		Algos:    []exp.AlgoSpec{slowcc.TCP(0.5)},
	})[0]
	if !r.Stab.Stabilized {
		t.Fatal("TCP did not stabilize via public API")
	}
	out := exp.RenderFig20(slowcc.Fig20(nil))
	if !strings.Contains(out, "AIMD+timeouts") {
		t.Fatal("Fig20 render incomplete")
	}
	pts := exp.Fig11(0.1, 0.1, 16)
	if len(pts) == 0 || math.IsNaN(pts[0].ACKs) {
		t.Fatal("Fig11 broken via public API")
	}
}

func TestPublicMeterAndSmoothness(t *testing.T) {
	eng := slowcc.NewEngine(1)
	var counter int64
	m := slowcc.NewMeter(eng, 1, func() int64 { return counter })
	var tick func()
	tick = func() {
		counter += 10
		eng.After(0.1, tick)
	}
	// Offset ticks from the bin edges so each 1s window holds exactly
	// ten increments.
	eng.At(0.05, tick)
	eng.RunUntil(10)
	s := slowcc.ComputeSmoothness(m.Rates())
	if s.MinRatio < 0.9 || s.MaxRatio > 1.1 {
		t.Fatalf("constant counter produced smoothness %+v", s)
	}
}

// TestFacadeDelegations touches every re-exported experiment wrapper at
// minimal scale so the public API stays wired.
func TestFacadeDelegations(t *testing.T) {
	// Fig45.
	f45 := slowcc.Fig45Config{
		Scenario: exp.StabilizationConfig{OffAt: 20, OnAt: 24, End: 45, Flows: 6, Seed: 1},
		MaxGamma: 1,
	}
	if out := exp.RenderFig45(slowcc.Fig45(f45)); !strings.Contains(out, "Figure 5") {
		t.Fatal("Fig45 facade broken")
	}
	// Defaults are inspectable.
	if slowcc.DefaultFig7().B.Name != "TFRC(6)" {
		t.Fatal("default configs broken")
	}
	// Fig6.
	f6 := slowcc.Fig6Config{
		Backgrounds: []slowcc.Algorithm{slowcc.TCP(0.5)},
		Flows:       2, CrowdStart: 5, CrowdDuration: 1, CrowdRate: 50, End: 12, Seed: 1,
	}
	if out := slowcc.RenderFig6(f6, slowcc.Fig6(f6)); !strings.Contains(out, "crowd") {
		t.Fatal("Fig6 facade broken")
	}
	// Fairness.
	fc := slowcc.FairnessConfig{A: slowcc.TCP(0.5), B: slowcc.TCP(0.25),
		Periods: []slowcc.Time{2}, Warmup: 5, Measure: 15, Seed: 1}
	if out := slowcc.RenderFairness("t", fc, slowcc.Fairness(fc)); !strings.Contains(out, "period") {
		t.Fatal("Fairness facade broken")
	}
	// Oscillation.
	oc := slowcc.OscillationConfig{Algos: []slowcc.Algorithm{slowcc.TCP(0.5)},
		Periods: []slowcc.Time{1}, Warmup: 5, Measure: 15, Flows: 4, Seed: 1}
	if out := slowcc.RenderOscillation("t", oc, slowcc.Oscillation(oc)); !strings.Contains(out, "drop rate") {
		t.Fatal("Oscillation facade broken")
	}
	// Smoothness defaults.
	sm := slowcc.DefaultFig19()
	sm.Duration = 30
	sm.Warmup = 5
	sm.Seed = 1
	if out := slowcc.RenderSmoothness("t", sm, slowcc.RunSmoothness(sm)); !strings.Contains(out, "minRatio") {
		t.Fatal("Smoothness facade broken")
	}
	_ = slowcc.DefaultFig17()
	_ = slowcc.DefaultFig18()
	// Trace ops.
	var tr slowcc.Tracer
	tr.Record(trace.Event{Op: slowcc.TraceRecv, Size: 10})
	if tr.Len() != 1 || len(tr.Filter(-1, slowcc.TraceRecv)) != 1 {
		t.Fatal("Tracer facade broken")
	}
}
