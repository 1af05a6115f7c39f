package exp

import (
	"fmt"
	"strings"

	"slowcc/internal/cc/cbr"
	"slowcc/internal/metrics"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

// OscillationConfig is the Figure 14/15/16 scenario: ten identical
// congestion-controlled flows compete with a square-wave CBR source, and
// we measure their aggregate throughput (as a fraction of the average
// available bandwidth) and the packet drop rate, as a function of the
// oscillation period.
type OscillationConfig struct {
	// Algos are the traffic types compared (paper: TCP(1/8), TCP,
	// TFRC(6)).
	Algos []AlgoSpec
	// Flows is the number of flows per run (paper: 10).
	Flows int
	// Rate is the bottleneck bandwidth (paper: 15 Mbps).
	Rate float64
	// CBRPeak is the CBR ON rate: 10 Mbps gives the 3:1 swing of Figure
	// 14, 13.5 Mbps the 10:1 swing of Figure 16.
	CBRPeak float64
	// Periods sweeps the combined ON+OFF length in seconds (the paper's
	// x-axis shows the ON=OFF span length; Periods holds ON+OFF).
	Periods []sim.Time
	// Warmup and Measure set the timeline.
	Warmup, Measure sim.Time
	// Seed seeds each run.
	Seed int64
}

func (c *OscillationConfig) fill() {
	if c.Algos == nil {
		c.Algos = []AlgoSpec{
			TCPAlgo(1.0 / 8),
			TCPAlgo(0.5),
			TFRCAlgo(TFRCOpts{K: 6, HistoryDiscounting: true}),
		}
	}
	if c.Flows == 0 {
		c.Flows = 10
	}
	if c.Rate == 0 {
		c.Rate = 15e6
	}
	if c.CBRPeak == 0 {
		c.CBRPeak = 10e6
	}
	if c.Periods == nil {
		// ON/OFF spans of 50ms..12.8s, i.e. periods of 0.1..25.6s.
		c.Periods = []sim.Time{0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 12.8, 25.6}
	}
	if c.Warmup == 0 {
		c.Warmup = 20
	}
	if c.Measure == 0 {
		c.Measure = 120
	}
}

// OscillationPoint is one (algorithm, period) outcome.
type OscillationPoint struct {
	Algo   string
	Period sim.Time
	// PerFlow holds each flow's throughput as a fraction of its fair
	// share of the average available bandwidth.
	PerFlow []float64
	// Throughput is the aggregate fraction of the average available
	// bandwidth achieved (Figure 14/16's y-axis).
	Throughput float64
	// DropRate is the bottleneck drop fraction over the measurement
	// window (Figure 15's y-axis).
	DropRate float64
}

// Oscillation runs the sweep for every algorithm and period, in
// parallel.
func (sw *Sweep) Oscillation(cfg OscillationConfig) []OscillationPoint {
	cfg.fill()
	type job struct {
		algo   AlgoSpec
		period sim.Time
	}
	var jobs []job
	for _, a := range cfg.Algos {
		for _, p := range cfg.Periods {
			jobs = append(jobs, job{a, p})
		}
	}
	return supervisedMap(sw, len(jobs), func(c *Cell) OscillationPoint {
		return runOscillation(c, cfg, jobs[c.Index()].algo, jobs[c.Index()].period)
	})
}

func runOscillation(c *Cell, cfg OscillationConfig, algo AlgoSpec, period sim.Time) OscillationPoint {
	eng, d := c.newScenario(cfg.Seed, topology.Config{Rate: cfg.Rate})
	mon := metrics.NewLossMonitor(0.5)
	mon.EnsureHorizon(cfg.Warmup + cfg.Measure)
	d.Fwd[0].AddTap(mon.Tap())

	flows := algo.flows(d, 1, cfg.Flows)
	startAll(d, flows, 0)
	withReverseTraffic(eng, d, 2)
	withCBR(eng, d, cbrFlowID, cfg.CBRPeak, cbr.SquareWave{Period: period}, topology.Span{})

	got := measureWindow(eng, cfg.Warmup, cfg.Warmup+cfg.Measure, flows)

	avail := cfg.Rate - cfg.CBRPeak/2
	fair := avail / float64(cfg.Flows)
	pt := OscillationPoint{Algo: algo.Name, Period: period}
	var total float64
	for _, bytes := range got {
		bps := bitsPerSec(bytes, cfg.Measure)
		total += bps
		pt.PerFlow = append(pt.PerFlow, bps/fair)
	}
	pt.Throughput = total / avail
	pt.DropRate = mon.RateOver(cfg.Warmup, cfg.Warmup+cfg.Measure)
	return pt
}

// RenderOscillation prints the Figure 14 (or 16) throughput table and
// the Figure 15 drop-rate table.
func RenderOscillation(title string, cfg OscillationConfig, pts []OscillationPoint) string {
	cfg.fill()
	names := make([]string, 0, len(cfg.Algos))
	for _, a := range cfg.Algos {
		names = append(names, a.Name)
	}
	var b strings.Builder
	writeTable := func(heading string, cell func(OscillationPoint) float64) {
		fmt.Fprintf(&b, "%s\n%12s", heading, "on/off(s)")
		for _, n := range names {
			fmt.Fprintf(&b, " %12s", n)
		}
		b.WriteByte('\n')
		for _, p := range cfg.Periods {
			fmt.Fprintf(&b, "%12.2f", p/2)
			for _, n := range names {
				for _, pt := range pts {
					if pt.Algo == n && pt.Period == p {
						fmt.Fprintf(&b, " %12.3f", cell(pt))
					}
				}
			}
			b.WriteByte('\n')
		}
		b.WriteByte('\n')
	}
	writeTable(title+": throughput as a fraction of average available bandwidth",
		func(p OscillationPoint) float64 { return p.Throughput })
	writeTable(title+" (companion): bottleneck drop rate",
		func(p OscillationPoint) float64 { return p.DropRate })
	return b.String()
}

// oscillationExperiment is the roster row of an oscillation figure at
// the given CBR peak (0: the 3:1 default); reduced scale sweeps four
// periods with a 10 s warmup and a 60 s window.
func oscillationExperiment(title string, cbrPeak float64) runFunc {
	return func(sw *Sweep, full bool, seed int64, _ MatrixConfig) (string, any) {
		cfg := OscillationConfig{CBRPeak: cbrPeak, Seed: seed}
		if !full {
			cfg.Periods = []sim.Time{0.1, 0.4, 1.6, 6.4}
			cfg.Warmup = 10
			cfg.Measure = 60
		}
		res := sw.Oscillation(cfg)
		return RenderOscillation(title, cfg, res), res
	}
}
