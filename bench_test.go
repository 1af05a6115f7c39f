// Benchmarks: one per table/figure of the paper. Each runs the
// experiment at a reduced-but-meaningful scale (a full paper-scale run
// is minutes; use `go run ./cmd/slowccsim -exp <fig> -full` for that)
// and reports the figure's key quantity as a benchmark metric so
// regressions in behavior — not just speed — are visible.
package slowcc_test

import (
	"testing"

	"slowcc"
)

// benchStab is the compressed Figure 3/4/5 scenario shared below.
func benchStab(seed int64) slowcc.StabilizationConfig {
	return slowcc.StabilizationConfig{OffAt: 50, OnAt: 60, End: 120, Seed: seed}
}

func BenchmarkFig3DropRateTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := slowcc.DefaultFig3()
		cfg.Scenario = benchStab(int64(i + 1))
		res := slowcc.Fig3(cfg)
		b.ReportMetric(res[0].Steady*100, "steady-loss-%")
	}
}

func BenchmarkFig4StabilizationTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := benchStab(int64(i + 1))
		sc.Algo = slowcc.TFRC(slowcc.TFRCOptions{K: 256})
		r := slowcc.RunStabilization(sc)
		b.ReportMetric(r.Stab.TimeRTTs, "stab-RTTs")
	}
}

func BenchmarkFig5StabilizationCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := benchStab(int64(i + 1))
		sc.Algo = slowcc.TFRC(slowcc.TFRCOptions{K: 256})
		noSC := slowcc.RunStabilization(sc)
		sc.Algo = slowcc.TFRC(slowcc.TFRCOptions{K: 256, Conservative: true})
		withSC := slowcc.RunStabilization(sc)
		b.ReportMetric(noSC.Stab.Cost, "cost-noSC")
		b.ReportMetric(withSC.Stab.Cost, "cost-SC")
	}
}

func BenchmarkFig5AblationDropTail(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := benchStab(int64(i + 1))
		sc.DropTail = true
		sc.Algo = slowcc.TFRC(slowcc.TFRCOptions{K: 256, Conservative: true})
		r := slowcc.RunStabilization(sc)
		b.ReportMetric(r.Stab.Cost, "cost-SC-droptail")
	}
}

func BenchmarkFig6FlashCrowd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := slowcc.Fig6Config{
			Backgrounds:   []slowcc.Algorithm{slowcc.TFRC(slowcc.TFRCOptions{K: 256, Conservative: true})},
			Flows:         6,
			CrowdStart:    15,
			CrowdDuration: 3,
			CrowdRate:     200,
			End:           40,
			Seed:          int64(i + 1),
		}
		res := slowcc.Fig6(cfg)
		b.ReportMetric(float64(res[0].CrowdCompleted), "crowd-done")
	}
}

func BenchmarkFig7TCPvsTFRC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := slowcc.DefaultFig7()
		cfg.Periods = []slowcc.Time{4}
		cfg.Warmup, cfg.Measure, cfg.Seed = 15, 60, int64(i+1)
		pts := slowcc.Fairness(cfg)
		b.ReportMetric(pts[0].AMean/pts[0].BMean, "tcp/tfrc")
	}
}

func BenchmarkFig8TCPvsTCP8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := slowcc.DefaultFig8()
		cfg.Periods = []slowcc.Time{4}
		cfg.Warmup, cfg.Measure, cfg.Seed = 15, 60, int64(i+1)
		pts := slowcc.Fairness(cfg)
		b.ReportMetric(pts[0].AMean/pts[0].BMean, "tcp/tcp8")
	}
}

func BenchmarkFig9TCPvsSQRT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := slowcc.DefaultFig9()
		cfg.Periods = []slowcc.Time{4}
		cfg.Warmup, cfg.Measure, cfg.Seed = 15, 60, int64(i+1)
		pts := slowcc.Fairness(cfg)
		b.ReportMetric(pts[0].AMean/pts[0].BMean, "tcp/sqrt")
	}
}

func BenchmarkFig10ConvergenceTCP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := slowcc.ConvergenceConfig{
			Algo:        slowcc.TCP(1.0 / 8),
			SecondStart: 15,
			Horizon:     200,
			Seeds:       []int64{int64(i + 1)},
		}
		r := slowcc.RunConvergence(cfg)
		b.ReportMetric(float64(r.MeanTime), "conv-s")
	}
}

func BenchmarkFig11ConvergenceModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := slowcc.Fig11(0.1, 0.1, 256)
		b.ReportMetric(pts[len(pts)-1].ACKs, "acks-b256")
	}
}

func BenchmarkFig12ConvergenceTFRC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := slowcc.ConvergenceConfig{
			Algo:        slowcc.TFRC(slowcc.TFRCOptions{K: 8, HistoryDiscounting: true}),
			SecondStart: 15,
			Horizon:     200,
			Seeds:       []int64{int64(i + 1)},
		}
		r := slowcc.RunConvergence(cfg)
		b.ReportMetric(float64(r.MeanTime), "conv-s")
	}
}

func BenchmarkFig13Fk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := slowcc.Fig13Config{StopAt: 60, MaxGamma: 8, Seed: int64(i + 1)}
		pts := slowcc.Fig13(cfg)
		for _, p := range pts {
			if p.Family == "TFRC(b)" && p.Gamma == 8 {
				b.ReportMetric(p.F[20], "tfrc8-f20")
			}
			if p.Family == "TCP(1/b)" && p.Gamma == 2 {
				b.ReportMetric(p.F[20], "tcp-f20")
			}
		}
	}
}

func BenchmarkFig14OscillationUtil(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := slowcc.OscillationConfig{
			Periods: []slowcc.Time{0.4},
			Warmup:  10, Measure: 60,
			Seed: int64(i + 1),
		}
		pts := slowcc.Oscillation(cfg)
		b.ReportMetric(pts[0].Throughput, "util")
	}
}

func BenchmarkFig15OscillationLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := slowcc.OscillationConfig{
			Periods: []slowcc.Time{0.4},
			Warmup:  10, Measure: 60,
			Seed: int64(i + 1),
		}
		pts := slowcc.Oscillation(cfg)
		b.ReportMetric(pts[0].DropRate*100, "drop-%")
	}
}

func BenchmarkFig16Oscillation10to1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := slowcc.OscillationConfig{
			CBRPeak: 13.5e6,
			Periods: []slowcc.Time{1.6},
			Warmup:  10, Measure: 60,
			Seed: int64(i + 1),
		}
		pts := slowcc.Oscillation(cfg)
		b.ReportMetric(pts[0].Throughput, "util")
	}
}

func BenchmarkFig17MildBursty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := slowcc.DefaultFig17()
		cfg.Duration, cfg.Seed = 80, int64(i+1)
		res := slowcc.RunSmoothness(cfg)
		b.ReportMetric(res[0].Smooth.CoV, "tfrc-cov")
		b.ReportMetric(res[1].Smooth.CoV, "tcp8-cov")
	}
}

func BenchmarkFig18SevereBursty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := slowcc.DefaultFig18()
		cfg.Duration, cfg.Seed = 80, int64(i+1)
		res := slowcc.RunSmoothness(cfg)
		b.ReportMetric(res[0].ThroughputMbps, "tfrc-Mbps")
		b.ReportMetric(res[1].ThroughputMbps, "tcp8-Mbps")
	}
}

func BenchmarkFig19IIADvsSQRT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := slowcc.DefaultFig19()
		cfg.Duration, cfg.Seed = 80, int64(i+1)
		res := slowcc.RunSmoothness(cfg)
		b.ReportMetric(res[0].ThroughputMbps, "iiad-Mbps")
		b.ReportMetric(res[1].ThroughputMbps, "sqrt-Mbps")
	}
}

func BenchmarkFig20TimeoutModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := slowcc.Fig20(nil)
		for _, p := range pts {
			if p.P == 0.5 {
				b.ReportMetric(p.AIMDTimeouts, "rate-at-p0.5")
			}
		}
	}
}

func BenchmarkStaticCompatAudit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := slowcc.StaticCompatConfig{
			DropEveryNth: []int{100},
			Warmup:       20, Measure: 60,
			Seed: int64(i + 1),
		}
		pts := slowcc.StaticCompat(cfg)
		for _, p := range pts {
			if p.Algo == "TFRC(8)" {
				b.ReportMetric(p.VsTCP, "tfrc-vs-tcp")
			}
		}
	}
}

func BenchmarkRTTFairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := slowcc.RTTFairnessConfig{Warmup: 15, Measure: 60, Seed: int64(i + 1)}
		res := slowcc.RTTFairness(cfg)
		b.ReportMetric(res[0].Advantage, "tcp-shortRTT-adv")
		b.ReportMetric(res[1].Advantage, "tfrc-shortRTT-adv")
	}
}

func BenchmarkTEARStabilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := benchStab(int64(i + 1))
		sc.Algo = slowcc.TEAR(0)
		r := slowcc.RunStabilization(sc)
		b.ReportMetric(r.Stab.Cost, "tear-cost")
	}
}

func BenchmarkECNFairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := slowcc.FairnessConfig{
			A: slowcc.ECNTCP(0.5), B: slowcc.ECNTCP(1.0 / 8), ECN: true,
			Periods: []slowcc.Time{4}, Warmup: 15, Measure: 60,
			Seed: int64(i + 1),
		}
		pts := slowcc.Fairness(cfg)
		b.ReportMetric(pts[0].Utilization, "ecn-util")
	}
}

// BenchmarkEnginePacketsPerSecond measures raw simulator throughput: a
// saturated 10 Mbps dumbbell with two flows, reported as simulated
// packet-events per wall second.
func BenchmarkEnginePacketsPerSecond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := slowcc.NewEngine(int64(i + 1))
		d := slowcc.NewDumbbell(eng, slowcc.DumbbellConfig{Rate: 10e6, Seed: int64(i + 1)})
		f1 := slowcc.TCP(0.5).Make(eng, d, 1)
		f2 := slowcc.TCP(0.5).Make(eng, d, 2)
		eng.At(0, f1.Sender.Start)
		eng.At(0, f2.Sender.Start)
		eng.RunUntil(30)
		b.ReportMetric(float64(eng.Steps()), "events")
	}
}

// BenchmarkSACKAblation reruns the Figure 5 headline cell with
// SACK-recovery TCP as the yardstick family, checking the fidelity
// deviation noted in EXPERIMENTS.md does not change the conclusion.
func BenchmarkSACKAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := benchStab(int64(i + 1))
		sc.Algo = slowcc.SACKTCP(1.0 / 256)
		r := slowcc.RunStabilization(sc)
		b.ReportMetric(r.Stab.Cost, "sacktcp256-cost")
	}
}
