// Benchmarks: the engine macro-benchmark and one ablation that is not a
// roster experiment. The gated benchmark is `go run ./bench`; a roster
// row's cost is `slowccsim -exp NAME -cpuprofile F`.
package slowcc_test

import (
	"testing"

	"slowcc"
	"slowcc/internal/exp"
)

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
		r := exp.Fig3(exp.Fig3Config{
			Scenario: exp.StabilizationConfig{OffAt: 50, OnAt: 60, End: 120, Seed: int64(i + 1)},
			Algos:    []exp.AlgoSpec{exp.SACKTCPAlgo(1.0 / 256)},
		})[0]
		b.ReportMetric(r.Stab.Cost, "sacktcp256-cost")
	}
}
