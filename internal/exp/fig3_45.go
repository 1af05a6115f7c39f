package exp

import (
	"fmt"
	"strings"

	"slowcc/internal/cc/cbr"
	"slowcc/internal/metrics"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

// StabilizationConfig is the Figure 3/4/5 scenario: long-lived SlowCC
// flows, and a CBR source at half the bottleneck rate that pauses and
// then returns, forcing a sudden halving of the available bandwidth.
type StabilizationConfig struct {
	// Algo is the congestion control algorithm under test.
	Algo AlgoSpec
	// Flows is the number of long-lived flows (paper: 20).
	Flows int
	// Rate is the bottleneck bandwidth (paper: 10 Mbps).
	Rate float64
	// OffAt, OnAt, End define the CBR timeline: ON from 0 to OffAt, OFF
	// until OnAt, then ON until End (paper: 150, 180, 400).
	OffAt, OnAt, End sim.Time
	// Seed seeds the run.
	Seed int64
	// DropTail switches the bottleneck to tail-drop (ablation; the paper
	// reports the self-clocking result holds there too).
	DropTail bool
	// DisablePool turns off packet pooling for this run. It exists for
	// the determinism cross-check (pooled and unpooled runs must produce
	// bit-identical metrics; see DESIGN.md §8), not for production use.
	DisablePool bool
}

// stabilizationCBRFraction is the CBR peak rate as a fraction of the
// bottleneck (paper: one half); stabilizationReverseFlows is the number
// of reverse-direction TCP flows.
const (
	stabilizationCBRFraction  = 0.5
	stabilizationReverseFlows = 2
)

func (c *StabilizationConfig) fill() {
	if c.Flows == 0 {
		c.Flows = 20
	}
	if c.Rate == 0 {
		c.Rate = 10e6
	}
	if c.OffAt == 0 {
		c.OffAt = 150
	}
	if c.OnAt == 0 {
		c.OnAt = 180
	}
	if c.End == 0 {
		c.End = 400
	}
}

// StabilizationResult reports the Figure 4/5 metrics plus the Figure 3
// loss-rate time series for one algorithm.
type StabilizationResult struct {
	Algo   string
	Steady float64 // steady-state loss rate with the CBR active
	Stab   metrics.Stabilization
	// LossTrace samples the 10-RTT-windowed loss rate from shortly
	// before the CBR restart to the end of the run.
	LossTrace []TimePoint
}

// TimePoint is one sample of a time series.
type TimePoint struct {
	T sim.Time
	V float64
}

// runStabilization runs the Figure 3/4/5 scenario for one algorithm.
func runStabilization(c *Cell, cfg StabilizationConfig) StabilizationResult {
	cfg.fill()
	eng, d := c.newScenario(cfg.Seed, topology.Config{Rate: cfg.Rate, DropTail: cfg.DropTail, DisablePool: cfg.DisablePool})
	rtt := d.PropRTT()

	mon := metrics.NewLossMonitor(10 * rtt) // paper: average over ten RTTs
	mon.EnsureHorizon(cfg.End)
	d.Fwd[0].AddTap(mon.Tap())

	flows := cfg.Algo.flows(d, 1, cfg.Flows)
	startAll(d, flows, 0)
	withReverseTraffic(eng, d, stabilizationReverseFlows)

	withCBR(eng, d, cbrFlowID, stabilizationCBRFraction*cfg.Rate, cbr.Steps{
		At:     []sim.Time{0, cfg.OffAt, cfg.OnAt},
		Levels: []float64{1, 0, 1},
	}, topology.Span{})
	eng.RunUntil(cfg.End)

	// Steady-state loss for this level of congestion: the tail of the
	// first ON period. (The paper averages over the whole first 150s;
	// for the very slow variants that period is dominated by the descent
	// from the slow-start overshoot, which would inflate the baseline
	// and hide the post-restart transient, so we use the converged
	// tail.)
	steady := mon.RateOver(cfg.OffAt*2/3, cfg.OffAt)
	st := mon.Stabilization(cfg.OnAt, cfg.End, steady, rtt)

	res := StabilizationResult{Algo: cfg.Algo.Name, Steady: steady, Stab: st}
	from := cfg.OffAt - 10
	if from < 0 {
		from = 0
	}
	for i := int(from / mon.Width); i < mon.Bins(); i++ {
		res.LossTrace = append(res.LossTrace, TimePoint{
			T: sim.Time(i) * mon.Width,
			V: mon.Rate(i),
		})
	}
	return res
}

// Fig3Config selects the algorithms whose loss-rate timelines Figure 3
// overlays (the paper shows the gamma=256 extremes).
type Fig3Config struct {
	Scenario StabilizationConfig // Algo field is ignored
	Algos    []AlgoSpec
}

// DefaultFig3 returns the paper's Figure 3 configuration.
func DefaultFig3() Fig3Config {
	return Fig3Config{
		Algos: []AlgoSpec{
			TCPAlgo(1.0 / 256),
			SQRTAlgo(1.0 / 256),
			TFRCAlgo(TFRCOpts{K: 256}),
			TFRCAlgo(TFRCOpts{K: 256, Conservative: true}),
			RAPAlgo(1.0 / 256),
		},
	}
}

// Fig3 runs the drop-rate timeline for each algorithm, in parallel.
// Cells run supervised: a pathological algorithm degrades its own
// column (see Sweep.Errors) instead of aborting the figure.
func (sw *Sweep) Fig3(cfg Fig3Config) []StabilizationResult {
	return supervisedMap(sw, len(cfg.Algos), func(c *Cell) StabilizationResult {
		sc := cfg.Scenario
		sc.Algo = cfg.Algos[c.Index()]
		return runStabilization(c, sc)
	})
}

// RenderFig3 prints the loss-rate timelines as aligned columns.
func RenderFig3(res []StabilizationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: drop rate timeline around the CBR restart\n")
	fmt.Fprintf(&b, "%8s", "t(s)")
	for _, r := range res {
		fmt.Fprintf(&b, " %14s", r.Algo)
	}
	b.WriteByte('\n')
	if len(res) == 0 || len(res[0].LossTrace) == 0 {
		return b.String()
	}
	for i := range res[0].LossTrace {
		fmt.Fprintf(&b, "%8.1f", res[0].LossTrace[i].T)
		for _, r := range res {
			v := 0.0
			if i < len(r.LossTrace) {
				v = r.LossTrace[i].V
			}
			fmt.Fprintf(&b, " %13.1f%%", v*100)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig45Config sweeps the slowness parameter gamma for each algorithm
// family, producing the Figure 4 (stabilization time) and Figure 5
// (stabilization cost) curves.
type Fig45Config struct {
	Scenario StabilizationConfig // Algo ignored
	// MaxGamma bounds the sweep: 1, 2, 4, ..., MaxGamma (paper: 256).
	MaxGamma int
}

// Fig45Point is one (family, gamma) cell.
type Fig45Point struct {
	Family string
	Gamma  int
	Result StabilizationResult
}

// Fig45 runs the sweep. Families follow the paper: TCP(1/g), RAP(1/g),
// SQRT(1/g), TFRC(g), and TFRC(g) with self-clocking.
func (sw *Sweep) Fig45(cfg Fig45Config) []Fig45Point {
	if cfg.MaxGamma == 0 {
		cfg.MaxGamma = 256
	}
	families := []struct {
		name string
		mk   func(g int) AlgoSpec
	}{
		{"TCP(1/g)", func(g int) AlgoSpec { return TCPAlgo(1 / float64(g)) }},
		{"RAP(1/g)", func(g int) AlgoSpec { return RAPAlgo(1 / float64(g)) }},
		{"SQRT(1/g)", func(g int) AlgoSpec { return SQRTAlgo(1 / float64(g)) }},
		{"TFRC(g)", func(g int) AlgoSpec { return TFRCAlgo(TFRCOpts{K: g}) }},
		{"TFRC(g)+SC", func(g int) AlgoSpec { return TFRCAlgo(TFRCOpts{K: g, Conservative: true}) }},
	}
	type job struct {
		family string
		gamma  int
		mk     func(g int) AlgoSpec
	}
	var jobs []job
	for _, fam := range families {
		for _, g := range gammaSteps(cfg.MaxGamma) {
			jobs = append(jobs, job{fam.name, g, fam.mk})
		}
	}
	return supervisedMap(sw, len(jobs), func(c *Cell) Fig45Point {
		j := jobs[c.Index()]
		sc := cfg.Scenario
		sc.Algo = j.mk(j.gamma)
		return Fig45Point{Family: j.family, Gamma: j.gamma, Result: runStabilization(c, sc)}
	})
}

// RenderFig45 prints the stabilization time and cost tables.
func RenderFig45(points []Fig45Point) string {
	fams, gammas := fig45Axes(points)
	var b strings.Builder
	writeTable := func(title string, cell func(Fig45Point) string) {
		fmt.Fprintf(&b, "%s\n%12s", title, "gamma")
		for _, f := range fams {
			fmt.Fprintf(&b, " %12s", f)
		}
		b.WriteByte('\n')
		for _, g := range gammas {
			fmt.Fprintf(&b, "%12d", g)
			for _, f := range fams {
				for _, p := range points {
					if p.Family == f && p.Gamma == g {
						fmt.Fprintf(&b, " %12s", cell(p))
					}
				}
			}
			b.WriteByte('\n')
		}
		b.WriteByte('\n')
	}
	writeTable("Figure 4: stabilization time (RTTs)", func(p Fig45Point) string {
		s := fmt.Sprintf("%.0f", p.Result.Stab.TimeRTTs)
		if !p.Result.Stab.Stabilized {
			s = ">" + s
		}
		return s
	})
	writeTable("Figure 5: stabilization cost (RTTs x loss fraction)", func(p Fig45Point) string {
		return fmt.Sprintf("%.2f", p.Result.Stab.Cost)
	})
	return b.String()
}

func fig45Axes(points []Fig45Point) (fams []string, gammas []int) {
	seenF := map[string]bool{}
	seenG := map[int]bool{}
	for _, p := range points {
		if !seenF[p.Family] {
			seenF[p.Family] = true
			fams = append(fams, p.Family)
		}
		if !seenG[p.Gamma] {
			seenG[p.Gamma] = true
			gammas = append(gammas, p.Gamma)
		}
	}
	return
}

// stabScenario is the shared Figure 3/4/5 scenario: the paper's
// 150/180/400 s timeline, or 50/60/120 s at reduced scale.
func stabScenario(full bool, seed int64) StabilizationConfig {
	if full {
		return StabilizationConfig{Seed: seed}
	}
	return StabilizationConfig{OffAt: 50, OnAt: 60, End: 120, Seed: seed}
}

func fig3Experiment(sw *Sweep, full bool, seed int64, _ MatrixConfig) (string, any) {
	cfg := DefaultFig3()
	cfg.Scenario = stabScenario(full, seed)
	res := sw.Fig3(cfg)
	return RenderFig3(res), res
}

// fig45Experiment is the gamma sweep to 256, or to 16 at reduced scale,
// over a RED bottleneck or, as the ablation, a tail-drop one.
func fig45Experiment(dropTail bool) runFunc {
	return func(sw *Sweep, full bool, seed int64, _ MatrixConfig) (string, any) {
		cfg := Fig45Config{Scenario: stabScenario(full, seed), MaxGamma: 256}
		cfg.Scenario.DropTail = dropTail
		if !full {
			cfg.MaxGamma = 16
		}
		res := sw.Fig45(cfg)
		text := RenderFig45(res)
		if dropTail {
			text = "Ablation: DropTail bottleneck (paper reports self-clocking helps here too)\n" + text
		}
		return text, res
	}
}
