package exp

import (
	"fmt"
	"strings"

	"slowcc/internal/metrics"
	"slowcc/internal/sim"
	"slowcc/internal/tcpmodel"
	"slowcc/internal/topology"
)

// ConvergenceConfig is the Figure 10/12 scenario: two flows of the same
// algorithm, the second starting once the first owns the whole link, and
// the delta-fair convergence time between them.
type ConvergenceConfig struct {
	// SecondStart is when the late flow begins (the first must have
	// converged by then).
	SecondStart sim.Time
	// Horizon bounds the wait for convergence, measured from
	// SecondStart.
	Horizon sim.Time
	// Seeds lists the trials to average over.
	Seeds []int64
}

// convergenceRate is the bottleneck bandwidth (paper: 10 Mbps),
// convergenceDelta the fairness target (paper: 0.1), and convergenceBin
// the width of the rate bins it is judged on, held for 3 in a row.
const (
	convergenceRate           = 10e6
	convergenceDelta          = 0.1
	convergenceBin   sim.Time = 1
)

func (c *ConvergenceConfig) fill() {
	if c.SecondStart == 0 {
		c.SecondStart = 30
	}
	if c.Horizon == 0 {
		c.Horizon = 600
	}
	if c.Seeds == nil {
		c.Seeds = []int64{1, 2, 3}
	}
}

// ConvergenceResult reports the average delta-fair convergence time.
type ConvergenceResult struct {
	Algo string
	// MeanTime is the average convergence time over converged trials.
	MeanTime sim.Time
	// Converged counts trials that converged within the horizon.
	Converged, Trials int
}

// convergenceTrial is one (algorithm, seed) cell's outcome. Its fields
// are exported so the result store can keep it.
type convergenceTrial struct {
	Time sim.Time
	OK   bool
}

// convergence measures each algorithm over cfg.Seeds as one sweep of
// algorithm × seed cells, and averages each algorithm's converged
// trials.
func (sw *Sweep) convergence(cfg ConvergenceConfig, algos []AlgoSpec) []ConvergenceResult {
	cfg.fill()
	seeds := len(cfg.Seeds)
	trials := supervisedMap(sw, len(algos)*seeds, func(c *Cell) convergenceTrial {
		return runConvergence(c, cfg, algos[c.Index()/seeds], cfg.Seeds[c.Index()%seeds])
	})
	out := make([]ConvergenceResult, len(algos))
	for ai, a := range algos {
		res := ConvergenceResult{Algo: a.Name, Trials: seeds}
		var sum sim.Time
		for _, tr := range trials[ai*seeds : (ai+1)*seeds] {
			if tr.OK {
				res.Converged++
				sum += tr.Time
			}
		}
		if res.Converged > 0 {
			res.MeanTime = sum / sim.Time(res.Converged)
		}
		out[ai] = res
	}
	return out
}

// runConvergence runs one trial: two flows of algo, the second from
// SecondStart, until the horizon.
func runConvergence(c *Cell, cfg ConvergenceConfig, algo AlgoSpec, seed int64) convergenceTrial {
	eng, d := c.newScenario(seed, topology.Config{Rate: convergenceRate})
	f1 := algo.Make(eng, d, 1)
	f2 := algo.Make(eng, d, 2)
	eng.At(0, f1.Sender.Start)
	eng.At(cfg.SecondStart, f2.Sender.Start)
	m1 := metrics.NewMeter(eng, convergenceBin, f1.RecvBytes)
	m2 := metrics.NewMeter(eng, convergenceBin, f2.RecvBytes)
	eng.RunUntil(cfg.SecondStart + cfg.Horizon)
	t, ok := metrics.ConvergenceTime(m1, m2, cfg.SecondStart, convergenceDelta, 3)
	return convergenceTrial{t, ok}
}

// Fig10 sweeps TCP(b) over b = 1/2 ... 1/maxGamma.
func (sw *Sweep) Fig10(cfg ConvergenceConfig, maxGamma int) []ConvergenceResult {
	if maxGamma == 0 {
		maxGamma = 256
	}
	var algos []AlgoSpec
	for _, g := range gammaSteps(maxGamma) {
		if g == 1 {
			continue // b = 1 is not meaningful for AIMD decrease
		}
		algos = append(algos, TCPAlgo(1/float64(g)))
	}
	return sw.convergence(cfg, algos)
}

// Fig12 sweeps TFRC(k) over k = 1 ... maxK.
func (sw *Sweep) Fig12(cfg ConvergenceConfig, maxK int) []ConvergenceResult {
	if maxK == 0 {
		maxK = 256
	}
	var algos []AlgoSpec
	for _, k := range gammaSteps(maxK) {
		algos = append(algos, TFRCAlgo(TFRCOpts{K: k, HistoryDiscounting: true}))
	}
	return sw.convergence(cfg, algos)
}

// RenderConvergence prints a Figure 10/12 style table.
func RenderConvergence(title string, res []ConvergenceResult, horizon sim.Time) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: time to 0.1-fair convergence\n", title)
	fmt.Fprintf(&b, "%-14s %14s %12s\n", "algorithm", "mean time (s)", "converged")
	for _, r := range res {
		tstr := fmt.Sprintf("%.1f", r.MeanTime)
		if r.Converged == 0 {
			tstr = fmt.Sprintf(">%.0f", horizon)
		}
		fmt.Fprintf(&b, "%-14s %14s %9d/%d\n", r.Algo, tstr, r.Converged, r.Trials)
	}
	return b.String()
}

// Fig11Point is one cell of the analytic Figure 11 curve.
type Fig11Point struct {
	B    float64
	ACKs float64
}

// Fig11 evaluates the analytic expected-ACK count for delta-fair
// convergence of two AIMD(b) flows at mark probability p.
func Fig11(p, delta float64, maxGamma int) []Fig11Point {
	if maxGamma == 0 {
		maxGamma = 256
	}
	var out []Fig11Point
	for _, g := range gammaSteps(maxGamma) {
		if g == 1 {
			continue
		}
		b := 1 / float64(g)
		out = append(out, Fig11Point{B: b, ACKs: tcpmodel.ConvergenceACKs(b, p, delta)})
	}
	return out
}

// RenderFig11 prints the model curve.
func RenderFig11(p, delta float64, pts []Fig11Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11: expected ACKs to %.1f-fair convergence (analytic, p=%.2f)\n", delta, p)
	fmt.Fprintf(&b, "%10s %16s\n", "b", "E[ACKs]")
	for _, pt := range pts {
		fmt.Fprintf(&b, "%10.4f %16.0f\n", pt.B, pt.ACKs)
	}
	return b.String()
}

// convergenceExperiment is the roster row of a convergence sweep: three
// seeds to 256 within the default horizon, or one seed to 16 within
// 200 s at reduced scale.
func convergenceExperiment(title string, sweep func(*Sweep, ConvergenceConfig, int) []ConvergenceResult) runFunc {
	return func(sw *Sweep, full bool, seed int64, _ MatrixConfig) (string, any) {
		cfg, max := ConvergenceConfig{Seeds: []int64{seed, seed + 1, seed + 2}}, 256
		if !full {
			cfg, max = ConvergenceConfig{Horizon: 200, Seeds: []int64{seed}}, 16
		}
		res := sweep(sw, cfg, max)
		cfg.fill()
		return RenderConvergence(title, res, cfg.Horizon), res
	}
}

func fig11Experiment(*Sweep, bool, int64, MatrixConfig) (string, any) {
	res := Fig11(0.1, 0.1, 256)
	return RenderFig11(0.1, 0.1, res), res
}
