// Micro-benchmarks for the simulator core. Unlike bench_test.go, which
// benchmarks whole figure scenarios, these isolate one layer each —
// engine, link, and a single endpoint pair — so a performance or
// allocation regression points at the layer that caused it. Companion
// micro-benchmarks live next to their packages:
// internal/sim.BenchmarkEngineEventTurnover (scheduler only) and
// internal/netem.BenchmarkLinkForward (per-packet link path). The
// gated, recorded per-layer budget is `go run ./bench -trace 1`.
package slowcc_test

import (
	"testing"

	"slowcc"
)

// flowBench runs one sender/receiver pair of the given algorithm on a
// 10 Mbps dumbbell and measures one simulated second per iteration
// after a warmup, so allocs/op is the steady-state cost of driving the
// whole stack (endpoint + links + queues + timers) for a second.
func flowBench(b *testing.B, algo slowcc.Algorithm) {
	eng := slowcc.NewEngine(1)
	d := slowcc.NewDumbbell(eng, slowcc.DumbbellConfig{Rate: 10e6, Seed: 1})
	f := algo.Make(eng, d, 1)
	eng.At(0, f.Sender.Start)
	eng.RunUntil(5) // past slow start: steady congestion avoidance
	start := eng.Steps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunUntil(eng.Now() + 1)
	}
	b.ReportMetric(float64(eng.Steps()-start)/(b.Elapsed().Seconds()+1e-12), "events/s")
}

func BenchmarkTCPFlowSimSecond(b *testing.B)  { flowBench(b, slowcc.TCP(1)) }
func BenchmarkTFRCFlowSimSecond(b *testing.B) { flowBench(b, slowcc.TFRC(slowcc.TFRCOptions{})) }
