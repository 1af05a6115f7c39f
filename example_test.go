package slowcc_test

import (
	"fmt"

	"slowcc"
)

// Example demonstrates the minimal TCP-vs-TFRC comparison. Runs are
// deterministic for a fixed seed, so the printed shares are exact. (Seed
// choice matters: a few seeds land the startup overshoot on a loss burst
// severe enough to push TFRC into its slowly-responsive backoff for tens
// of seconds — the very dynamic the paper studies — which makes a poor
// two-line showcase of steady-state sharing.)
func Example() {
	eng := slowcc.NewEngine(2)
	d := slowcc.NewDumbbell(eng, slowcc.DumbbellConfig{Rate: 10e6, Seed: 2})
	tcp := slowcc.TCP(0.5).Make(eng, d, 1)
	tfrc := slowcc.TFRC(slowcc.TFRCOptions{K: 8, HistoryDiscounting: true}).Make(eng, d, 2)
	eng.At(0, tcp.Sender.Start)
	eng.At(0, tfrc.Sender.Start)
	eng.RunUntil(60)

	total := tcp.RecvBytes() + tfrc.RecvBytes()
	fmt.Printf("TCP share: %.0f%%\n", 100*float64(tcp.RecvBytes())/float64(total))
	fmt.Printf("link utilization: %.0f%%\n", float64(total)*8/(10e6*60)*100)
	// Output:
	// TCP share: 55%
	// link utilization: 90%
}

// ExampleFig20 tabulates the Appendix A analytic models; no simulation
// involved.
func ExampleFig20() {
	for _, pt := range slowcc.Fig20([]float64{0.5}) {
		fmt.Printf("p=%.1f AIMD+timeouts=%.3f pkts/RTT\n", pt.P, pt.AIMDTimeouts)
	}
	// Output:
	// p=0.5 AIMD+timeouts=0.667 pkts/RTT
}

// ExampleComputeSmoothness scores a TCP-like halving sawtooth: the
// paper's smoothness metric is the worst consecutive-interval ratio.
func ExampleComputeSmoothness() {
	s := slowcc.ComputeSmoothness([]float64{8, 4, 5, 6, 7, 8, 4})
	fmt.Printf("min ratio %.2f (1-b for TCP(b=1/2))\n", s.MinRatio)
	// Output:
	// min ratio 0.50 (1-b for TCP(b=1/2))
}

// ExampleCountPattern shows the Figure 17 loss script: three losses
// each after 50 arrivals, then three each after 400.
func ExampleCountPattern() {
	p := &slowcc.CountPattern{Intervals: []int{50, 50, 50, 400, 400, 400}}
	drops := 0
	for i := 0; i < 1356; i++ { // exactly one full cycle
		if p.Drop(0) {
			drops++
		}
	}
	fmt.Printf("%d drops per %d-packet cycle\n", drops, 1356)
	// Output:
	// 6 drops per 1356-packet cycle
}

// ExampleParseAlgo reaches the algorithms that have no constructor here
// by name, in the syntax slowcctrace -flow and slowccsim -matrix take;
// each result wires flows with Make, as TCP and TFRC do.
func ExampleParseAlgo() {
	for _, spec := range []string{"sqrt:0.5", "iiad", "rap:0.5", "tear", "cbr:2.5e6", "sqrt:2"} {
		algo, err := slowcc.ParseAlgo(spec)
		if err != nil {
			fmt.Println(err)
			continue
		}
		fmt.Println(algo.Name)
	}
	// Output:
	// SQRT(1/2)
	// IIAD(1/2)
	// RAP(1/2)
	// TEAR
	// CBR(2.5M)
	// flow "sqrt:2": sqrt wants b in (0,1]
}

// ExampleExperiments pins the roster's names and order: it is the text
// of slowccsim -list.
func ExampleExperiments() {
	for _, e := range slowcc.Experiments() {
		fmt.Printf("  %-18s %s\n", e.Name, e.Desc)
	}
	// Output:
	//   fig3               drop-rate timeline when a CBR source restarts
	//   fig45              stabilization time (Fig 4) and cost (Fig 5) vs gamma
	//   fig6               flash crowd vs TFRC(256) with/without self-clocking
	//   fig7               long-term fairness: TCP vs TFRC(6) under oscillation
	//   fig8               long-term fairness: TCP vs TCP(1/8)
	//   fig9               long-term fairness: TCP vs SQRT(1/2)
	//   fig10              0.1-fair convergence time for TCP(b)
	//   fig11              analytic expected ACKs to 0.1-fairness
	//   fig12              0.1-fair convergence time for TFRC(k)
	//   fig13              f(20)/f(200) utilization after bandwidth doubling
	//   fig14              utilization and drop rate under 3:1 oscillation (Figs 14+15)
	//   fig16              utilization under 10:1 oscillation
	//   fig17              smoothness on the mild bursty pattern: TFRC vs TCP(1/8)
	//   fig18              smoothness on the severe pattern (TFRC's worst case)
	//   fig19              smoothness: IIAD vs SQRT on the mild pattern
	//   fig20              Appendix A throughput models
	//   ablation-droptail  Fig 4/5 scenario with tail-drop instead of RED
	//   ablation-ecn       long-term fairness with an ECN-marking bottleneck
	//   ablation-tear      TEAR in the stabilization and oscillation scenarios
	//   outage             robustness extension: flash crowd onto a recovering bottleneck
	//   matrix             N x N cc pairwise interaction matrix across topologies and conditions
	//   static-compat      static TCP-compatibility audit under fixed loss
	//   rtt-fairness       extension: unequal-RTT flows sharing the bottleneck
	//   queue-dynamics     extension: queue oscillation by traffic type
}
