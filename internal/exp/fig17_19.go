package exp

import (
	"fmt"
	"strings"

	"slowcc/internal/metrics"
	"slowcc/internal/netem"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

// SmoothnessConfig is the Figure 17/18/19 scenario: a single flow runs
// over an uncongested path whose losses come entirely from a scripted
// pattern, and we examine its sending-rate trace, smoothness, and
// throughput.
type SmoothnessConfig struct {
	// Algos are the algorithms compared on the same pattern.
	Algos []AlgoSpec
	// Pattern constructs a fresh drop pattern for each run.
	Pattern func() netem.DropPattern
	// Duration is the run length.
	Duration sim.Time
	// Seed seeds the run.
	Seed int64
}

// smoothnessRate is the (deliberately generous) link bandwidth, so that
// the scripted pattern is the only loss process; smoothnessBin is the
// rate-trace granularity (paper plots 0.2s); smoothnessWarmup excludes
// startup from the metrics.
const (
	smoothnessRate            = 50e6
	smoothnessBin    sim.Time = 0.2
	smoothnessWarmup sim.Time = 20
)

func (c *SmoothnessConfig) fill() {
	if c.Duration == 0 {
		c.Duration = 120
	}
}

// SmoothnessResult is the outcome for one algorithm.
type SmoothnessResult struct {
	Algo string
	// SendTrace is the sending rate in bits/s per 0.2s bin.
	SendTrace []TimePoint
	// Smooth holds the smoothness statistics computed on per-RTT send
	// rates after warmup.
	Smooth metrics.Smoothness
	// SmoothBins holds the same statistics on 0.2s bins.
	SmoothBins metrics.Smoothness
	// ThroughputMbps is the delivered rate after warmup.
	ThroughputMbps float64
	// DropCount is how many packets the pattern killed.
	DropCount int64
}

// MildBurstyPattern returns the Figure 17/19 loss process: three losses
// each after 50 packet arrivals, then three each after 400, repeating.
func MildBurstyPattern() netem.DropPattern {
	return &netem.CountPattern{Intervals: []int{50, 50, 50, 400, 400, 400}}
}

// SevereBurstyPattern returns the Figure 18 loss process: a six-second
// phase dropping every 200th packet, then a one-second phase dropping
// every 4th.
func SevereBurstyPattern() netem.DropPattern {
	return &netem.TimedPattern{Phases: []netem.TimedPhase{
		{Duration: 6, EveryNth: 200},
		{Duration: 1, EveryNth: 4},
	}}
}

// RunSmoothness runs the scenario for each algorithm, one sweep cell
// each.
func (sw *Sweep) RunSmoothness(cfg SmoothnessConfig) []SmoothnessResult {
	cfg.fill()
	return supervisedMap(sw, len(cfg.Algos), func(c *Cell) SmoothnessResult {
		return runSmoothnessOne(c, cfg, cfg.Algos[c.Index()])
	})
}

func runSmoothnessOne(c *Cell, cfg SmoothnessConfig, algo AlgoSpec) SmoothnessResult {
	eng, d := c.newScenario(cfg.Seed, topology.Config{
		Rate:        smoothnessRate,
		ForwardLoss: cfg.Pattern(),
	})
	f := algo.Make(eng, d, 1)
	eng.At(0, f.Sender.Start)

	rtt := d.PropRTT()
	binMeter := metrics.NewMeter(eng, smoothnessBin, f.SentBytes)
	rttMeter := metrics.NewMeter(eng, rtt, f.SentBytes)
	got := measureWindow(eng, smoothnessWarmup, cfg.Duration, []Flow{f})

	res := SmoothnessResult{Algo: algo.Name}
	for i, r := range binMeter.Rates() {
		res.SendTrace = append(res.SendTrace, TimePoint{T: sim.Time(i+1) * smoothnessBin, V: r * 8})
	}
	warmBins := int(smoothnessWarmup / rtt)
	rttRates := rttMeter.Rates()
	if warmBins < len(rttRates) {
		res.Smooth = metrics.ComputeSmoothness(rttRates[warmBins:])
	}
	warmWide := int(smoothnessWarmup / smoothnessBin)
	wide := binMeter.Rates()
	if warmWide < len(wide) {
		res.SmoothBins = metrics.ComputeSmoothness(wide[warmWide:])
	}
	res.ThroughputMbps = bitsPerSec(got[0], cfg.Duration-smoothnessWarmup) / 1e6
	if d.Filters[0] != nil {
		res.DropCount = d.Filters[0].Drops
	}
	return res
}

// RenderSmoothness prints rate traces side by side plus the summary
// metrics.
func RenderSmoothness(title string, res []SmoothnessResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: sending rate (Mbps, %.1fs bins)\n", title, smoothnessBin)
	fmt.Fprintf(&b, "%7s", "t(s)")
	for _, r := range res {
		fmt.Fprintf(&b, " %12s", r.Algo)
	}
	b.WriteByte('\n')
	// Show a representative window after warmup.
	from, to := smoothnessWarmup, smoothnessWarmup+15
	for i := 0; len(res) > 0 && i < len(res[0].SendTrace); i++ {
		t := res[0].SendTrace[i].T
		if t < from || t > to {
			continue
		}
		fmt.Fprintf(&b, "%7.1f", t)
		for _, r := range res {
			v := 0.0
			if i < len(r.SendTrace) {
				v = r.SendTrace[i].V
			}
			fmt.Fprintf(&b, " %12.3f", v/1e6)
		}
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-14s %12s %12s %12s %12s\n", "algorithm", "minRatio", "maxRatio", "CoV", "thru(Mbps)")
	for _, r := range res {
		fmt.Fprintf(&b, "%-14s %12.3f %12.3f %12.3f %12.3f\n",
			r.Algo, r.Smooth.MinRatio, r.Smooth.MaxRatio, r.Smooth.CoV, r.ThroughputMbps)
	}
	return b.String()
}

// DefaultFig17 compares default TFRC with TCP(1/8) on the mild pattern.
func DefaultFig17() SmoothnessConfig {
	return SmoothnessConfig{
		Algos: []AlgoSpec{
			TFRCAlgo(TFRCOpts{K: 8, HistoryDiscounting: true}),
			TCPAlgo(1.0 / 8),
		},
		Pattern: MildBurstyPattern,
	}
}

// DefaultFig18 adds TCP(1/2) on the severe pattern (the paper notes
// TFRC does worse than both there).
func DefaultFig18() SmoothnessConfig {
	return SmoothnessConfig{
		Algos: []AlgoSpec{
			TFRCAlgo(TFRCOpts{K: 8, HistoryDiscounting: true}),
			TCPAlgo(1.0 / 8),
			TCPAlgo(0.5),
		},
		Pattern: SevereBurstyPattern,
	}
}

// DefaultFig19 compares IIAD and SQRT on the mild pattern.
func DefaultFig19() SmoothnessConfig {
	return SmoothnessConfig{
		Algos:   []AlgoSpec{IIADAlgo(0.5), SQRTAlgo(0.5)},
		Pattern: MildBurstyPattern,
	}
}

// smoothnessExperiment is the roster row of a smoothness figure: 120 s,
// or 80 s at reduced scale.
func smoothnessExperiment(title string, base SmoothnessConfig) runFunc {
	return func(sw *Sweep, full bool, seed int64, _ MatrixConfig) (string, any) {
		cfg := base
		cfg.Seed = seed
		if !full {
			cfg.Duration = 80
		}
		res := sw.RunSmoothness(cfg)
		return RenderSmoothness(title, res), res
	}
}
