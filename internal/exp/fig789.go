package exp

import (
	"fmt"
	"strings"

	"slowcc/internal/cc/cbr"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

// FairnessConfig is the Figure 7/8/9 scenario: fairnessAFlows flows of
// algorithm A and fairnessBFlows of algorithm B share a bottleneck with a
// square-wave CBR source, and we measure long-term throughput as a
// function of the CBR period.
type FairnessConfig struct {
	// A and B are the competing algorithms (paper: A = TCP).
	A, B AlgoSpec
	// Periods is the sweep of combined ON+OFF period lengths in seconds.
	Periods []sim.Time
	// Warmup and Measure set the timeline: throughput is measured over
	// [Warmup, Warmup+Measure].
	Warmup, Measure sim.Time
	// Seed seeds each run.
	Seed int64
	// ECN switches the bottlenecks to ECN marking (pair with
	// ECN-enabled algorithms for the ablation).
	ECN bool
	// DisablePool turns off packet pooling for every run in the sweep.
	// It exists for the determinism cross-check (pooled and unpooled
	// runs must produce bit-identical metrics; see DESIGN.md §8).
	DisablePool bool
}

// fairnessRate is the bottleneck bandwidth (paper: 15 Mbps),
// fairnessCBRPeak the CBR rate when ON (paper: 10 Mbps, leaving 5 Mbps:
// a 3:1 swing in available bandwidth), and fairnessAFlows and
// fairnessBFlows count the flows of A and of B (paper: 5 and 5).
const (
	fairnessRate    = 15e6
	fairnessCBRPeak = 10e6
	fairnessAFlows  = 5
	fairnessBFlows  = 5
)

func (c *FairnessConfig) fill() {
	if c.Periods == nil {
		c.Periods = []sim.Time{0.1, 0.2, 0.4, 1, 2, 4, 8, 16, 32, 64}
	}
	if c.Warmup == 0 {
		c.Warmup = 20
	}
	if c.Measure == 0 {
		c.Measure = 150
	}
}

// FairnessPoint is the outcome at one CBR period.
type FairnessPoint struct {
	Period sim.Time
	// APer and BPer are per-flow normalized throughputs (fraction of
	// the fair share of the average available bandwidth).
	APer, BPer []float64
	// AMean and BMean are the means of the above.
	AMean, BMean float64
	// AMeanCI and BMeanCI are always zero. They stay because bench/'s
	// output oracle hashes a point's printed form, field names included.
	AMeanCI, BMeanCI float64
	// Utilization is total received / average available bandwidth.
	Utilization float64
}

// Fairness runs the period sweep, one sweep cell per period, in
// parallel.
func (sw *Sweep) Fairness(cfg FairnessConfig) []FairnessPoint {
	cfg.fill()
	return supervisedMap(sw, len(cfg.Periods), func(c *Cell) FairnessPoint {
		return runFairness(c, cfg, cfg.Periods[c.Index()])
	})
}

func runFairness(c *Cell, cfg FairnessConfig, period sim.Time) FairnessPoint {
	eng, d := c.newScenario(cfg.Seed, topology.Config{Rate: fairnessRate, ECN: cfg.ECN, DisablePool: cfg.DisablePool})

	n := fairnessAFlows + fairnessBFlows
	flows := append(cfg.A.flows(d, 1, fairnessAFlows), cfg.B.flows(d, fairnessAFlows+1, fairnessBFlows)...)
	startAll(d, flows, 0)
	withReverseTraffic(eng, d, 2)

	withCBR(eng, d, cbrFlowID, fairnessCBRPeak, cbr.SquareWave{Period: period}, topology.Span{})

	got := measureWindow(eng, cfg.Warmup, cfg.Warmup+cfg.Measure, flows)

	// Average available bandwidth: the square wave occupies on average
	// half its peak. Read through variables so it rounds at run time,
	// step by step, not once as a constant expression would.
	rate, peak := fairnessRate, fairnessCBRPeak
	avail := rate - peak/2
	fairShare := avail / float64(n)

	pt := FairnessPoint{Period: period}
	var total float64
	for i := range flows {
		bps := bitsPerSec(got[i], cfg.Measure)
		total += bps
		norm := bps / fairShare
		if i < fairnessAFlows {
			pt.APer = append(pt.APer, norm)
		} else {
			pt.BPer = append(pt.BPer, norm)
		}
	}
	pt.AMean = mean(pt.APer)
	pt.BMean = mean(pt.BPer)
	pt.Utilization = total / avail
	return pt
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// RenderFairness prints the Figure 7/8/9 table: per-flow normalized
// throughputs and the A/B means per period.
func RenderFairness(title string, cfg FairnessConfig, pts []FairnessPoint) string {
	cfg.fill()
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s (x%d) vs %s (x%d), normalized per-flow throughput\n",
		title, cfg.A.Name, fairnessAFlows, cfg.B.Name, fairnessBFlows)
	fmt.Fprintf(&b, "%10s %10s %10s %10s %10s %10s\n",
		"period(s)", cfg.A.Name, cfg.B.Name, "A/B", "util", "spread")
	for _, p := range pts {
		ratio := 0.0
		if p.BMean > 0 {
			ratio = p.AMean / p.BMean
		}
		lo, hi := minMax(append(append([]float64{}, p.APer...), p.BPer...))
		fmt.Fprintf(&b, "%10.2f %10.3f %10.3f %10.2f %10.3f %5.2f-%-5.2f\n",
			p.Period, p.AMean, p.BMean, ratio, p.Utilization, lo, hi)
	}
	return b.String()
}

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return
}

// DefaultFig7 returns the paper's TCP-vs-TFRC(6) configuration.
func DefaultFig7() FairnessConfig {
	return FairnessConfig{A: TCPAlgo(0.5), B: TFRCAlgo(TFRCOpts{K: 6, HistoryDiscounting: true})}
}

// DefaultFig8 returns the paper's TCP-vs-TCP(1/8) configuration.
func DefaultFig8() FairnessConfig {
	return FairnessConfig{A: TCPAlgo(0.5), B: TCPAlgo(1.0 / 8)}
}

// DefaultFig9 returns the paper's TCP-vs-SQRT(1/2) configuration.
func DefaultFig9() FairnessConfig {
	return FairnessConfig{A: TCPAlgo(0.5), B: SQRTAlgo(0.5)}
}

// fairnessAtScale runs base at the paper's scale or, reduced, over four
// periods with a 15 s warmup and a 60 s window.
func fairnessAtScale(sw *Sweep, title string, base FairnessConfig, full bool, seed int64) (string, []FairnessPoint) {
	base.Seed = seed
	if !full {
		base.Periods = []sim.Time{0.2, 1, 4, 16}
		base.Warmup = 15
		base.Measure = 60
	}
	res := sw.Fairness(base)
	return RenderFairness(title, base, res), res
}

// fairnessExperiment is the roster row of one fairness figure; head is
// printed above its table.
func fairnessExperiment(head, title string, base FairnessConfig) runFunc {
	return func(sw *Sweep, full bool, seed int64, _ MatrixConfig) (string, any) {
		text, res := fairnessAtScale(sw, title, base, full, seed)
		return head + text, res
	}
}

// tearExperiment puts TEAR through the stabilization scenario, as
// Figure 3 with one algorithm, and then against TCP under oscillation.
func tearExperiment(sw *Sweep, full bool, seed int64, _ MatrixConfig) (string, any) {
	r := sw.Fig3(Fig3Config{Scenario: stabScenario(full, seed), Algos: []AlgoSpec{TEARAlgo(0)}})[0]
	head := fmt.Sprintf("Ablation: TEAR stabilization — steady %.2f%%, time %.0f RTTs, cost %.2f\n\n",
		r.Steady*100, r.Stab.TimeRTTs, r.Stab.Cost)
	text, res := fairnessAtScale(sw, "TCP vs TEAR under oscillation", FairnessConfig{A: TCPAlgo(0.5), B: TEARAlgo(0)}, full, seed)
	return head + text, map[string]any{"stabilization": r, "fairness": res}
}
