package exp

import (
	"fmt"
	"strings"

	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

// RTTFairnessConfig is an extension experiment beyond the paper's
// figures: the paper restricts its equitability claim to
// similarly-situated flows (Section 1), noting TCP does not equalize
// across different round-trip times. This scenario quantifies that:
// pairs of flows with unequal access delays share a bottleneck, and we
// measure the short-RTT flow's advantage for TCP and for TFRC.
type RTTFairnessConfig struct {
	// Rate is the bottleneck bandwidth.
	Rate float64
	// Warmup and Measure set the timeline.
	Warmup, Measure sim.Time
	// Seed seeds each run.
	Seed int64
}

// rttShortAccess and rttLongAccess are the two access-link delays; with
// the default 21 ms bottleneck the RTTs are 2*(2a + 21ms).
const (
	rttShortAccess sim.Time = 0.002 // RTT 50 ms
	rttLongAccess  sim.Time = 0.027 // RTT 150 ms
)

func (c *RTTFairnessConfig) fill() {
	if c.Rate == 0 {
		c.Rate = 10e6
	}
	if c.Warmup == 0 {
		c.Warmup = 20
	}
	if c.Measure == 0 {
		c.Measure = 120
	}
}

// RTTFairnessResult is the outcome for one algorithm family.
type RTTFairnessResult struct {
	Algo string
	// ShortMbps and LongMbps are the two flows' throughputs.
	ShortMbps, LongMbps float64
	// Advantage is ShortMbps/LongMbps; 1 would be RTT-fair, and for TCP
	// theory predicts roughly the inverse RTT ratio.
	Advantage float64
}

// RTTFairness runs the scenario for TCP(1/2) and TFRC(8), one sweep
// cell each.
func (sw *Sweep) RTTFairness(cfg RTTFairnessConfig) []RTTFairnessResult {
	cfg.fill()
	keys, args := [...]string{"tcp", "tfrc"}, [...]float64{0.5, 8}
	return supervisedMap(sw, len(keys), func(c *Cell) RTTFairnessResult {
		return runRTTFairness(c, cfg, keys[c.Index()], args[c.Index()])
	})
}

// runRTTFairness runs two flows of roster row key at arg, one behind
// each access delay.
func runRTTFairness(c *Cell, cfg RTTFairnessConfig, key string, arg float64) RTTFairnessResult {
	r, _ := row(key)
	eng, d := c.newScenario(cfg.Seed, topology.Config{Rate: cfg.Rate})
	short := r.wire(eng, d, 1, arg, topology.Span{Access: rttShortAccess})
	long := r.wire(eng, d, 2, arg, topology.Span{Access: rttLongAccess})
	eng.At(0, short.Sender.Start)
	eng.At(0, long.Sender.Start)
	got := measureWindow(eng, cfg.Warmup, cfg.Warmup+cfg.Measure, []Flow{short, long})
	s, l := bitsPerSec(got[0], cfg.Measure), bitsPerSec(got[1], cfg.Measure)
	res := RTTFairnessResult{Algo: r.name(arg), ShortMbps: s / 1e6, LongMbps: l / 1e6}
	if l > 0 {
		res.Advantage = s / l
	}
	return res
}

// RenderRTTFairness prints the extension-experiment table.
func RenderRTTFairness(cfg RTTFairnessConfig, res []RTTFairnessResult) string {
	cfg.fill()
	var b strings.Builder
	// Read through variables so the sums round at run time, step by
	// step, not once as a constant expression would.
	short, long := rttShortAccess, rttLongAccess
	shortRTT := 2 * (2*short + 0.021)
	longRTT := 2 * (2*long + 0.021)
	fmt.Fprintf(&b, "RTT fairness (extension): %.0fms-RTT vs %.0fms-RTT flow on one bottleneck\n",
		shortRTT*1000, longRTT*1000)
	fmt.Fprintf(&b, "%-10s %12s %12s %12s\n", "algorithm", "short Mbps", "long Mbps", "advantage")
	for _, r := range res {
		fmt.Fprintf(&b, "%-10s %12.3f %12.3f %12.2f\n", r.Algo, r.ShortMbps, r.LongMbps, r.Advantage)
	}
	return b.String()
}

func rttFairnessExperiment(sw *Sweep, full bool, seed int64, _ MatrixConfig) (string, any) {
	cfg := RTTFairnessConfig{Seed: seed}
	if !full {
		cfg.Warmup = 15
		cfg.Measure = 60
	}
	res := sw.RTTFairness(cfg)
	return RenderRTTFairness(cfg, res), res
}
