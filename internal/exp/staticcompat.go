package exp

import (
	"fmt"
	"strings"

	"slowcc/internal/netem"
	"slowcc/internal/sim"
	"slowcc/internal/tcpmodel"
	"slowcc/internal/topology"
)

// StaticCompatConfig checks the premise the whole paper rests on: under
// a *static* loss process, every TCP-compatible algorithm should obtain
// roughly the throughput of standard TCP (Section 2, Figure 1's
// taxonomy). A single flow runs over an uncongested link whose only
// losses come from a deterministic drop-every-Nth pattern, and its
// long-run throughput is compared with TCP(1/2)'s under the identical
// pattern and with the analytic response function.
type StaticCompatConfig struct {
	// Algos are the algorithms to audit.
	Algos []AlgoSpec
	// DropEveryNth is the sweep of static loss processes: one loss per
	// N packets, i.e. p = 1/N.
	DropEveryNth []int
	// Warmup and Measure set the timeline per run.
	Warmup, Measure sim.Time
	// Seed seeds each run.
	Seed int64
}

// staticCompatRate is the (generous) link bandwidth.
const staticCompatRate = 50e6

func (c *StaticCompatConfig) fill() {
	if c.Algos == nil {
		c.Algos = []AlgoSpec{
			TCPAlgo(1.0 / 8),
			SQRTAlgo(0.5),
			IIADAlgo(0.5),
			RAPAlgo(0.5),
			TFRCAlgo(TFRCOpts{K: 8, HistoryDiscounting: true}),
			TEARAlgo(0),
		}
	}
	if c.DropEveryNth == nil {
		c.DropEveryNth = []int{400, 100, 25}
	}
	if c.Warmup == 0 {
		c.Warmup = 30
	}
	if c.Measure == 0 {
		c.Measure = 120
	}
}

// StaticCompatPoint is the outcome for one (algorithm, loss rate).
type StaticCompatPoint struct {
	Algo string
	// P is the imposed packet loss rate 1/N.
	P float64
	// Mbps is the measured long-run throughput.
	Mbps float64
	// TCPMbps is standard TCP's measured throughput under the same
	// pattern.
	TCPMbps float64
	// VsTCP is Mbps/TCPMbps: the static TCP-compatibility ratio.
	VsTCP float64
	// VsModel is Mbps over the simple response function's prediction.
	VsModel float64
}

// StaticCompat runs the audit as one sweep: a TCP(1/2) baseline cell
// per loss rate, then a cell per (loss rate, algorithm).
func (sw *Sweep) StaticCompat(cfg StaticCompatConfig) []StaticCompatPoint {
	cfg.fill()
	nn, na := len(cfg.DropEveryNth), len(cfg.Algos)
	rates := supervisedMap(sw, nn+nn*na, func(c *Cell) float64 {
		if i := c.Index(); i < nn {
			return staticRun(c, cfg, TCPAlgo(0.5), cfg.DropEveryNth[i])
		}
		j := c.Index() - nn
		return staticRun(c, cfg, cfg.Algos[j%na], cfg.DropEveryNth[j/na])
	})
	pts := make([]StaticCompatPoint, 0, nn*na)
	for j, rate := range rates[nn:] {
		p := 1 / float64(cfg.DropEveryNth[j/na])
		tcpRate := rates[j/na]
		model := tcpmodel.SimpleRate(p, 0.05, 1000) * 8
		pt := StaticCompatPoint{Algo: cfg.Algos[j%na].Name, P: p, Mbps: rate / 1e6, TCPMbps: tcpRate / 1e6}
		if tcpRate > 0 {
			pt.VsTCP = rate / tcpRate
		}
		if model > 0 {
			pt.VsModel = rate / model
		}
		pts = append(pts, pt)
	}
	return pts
}

// staticRun measures one flow's post-warmup throughput in bits/s under
// a drop-every-nth pattern.
func staticRun(c *Cell, cfg StaticCompatConfig, algo AlgoSpec, n int) float64 {
	eng, d := c.newScenario(cfg.Seed, topology.Config{
		Rate:        staticCompatRate,
		ForwardLoss: &netem.CountPattern{Intervals: []int{n - 1}},
	})
	f := algo.Make(eng, d, 1)
	eng.At(0, f.Sender.Start)
	got := measureWindow(eng, cfg.Warmup, cfg.Warmup+cfg.Measure, []Flow{f})
	return bitsPerSec(got[0], cfg.Measure)
}

// RenderStaticCompat prints the audit table.
func RenderStaticCompat(cfg StaticCompatConfig, pts []StaticCompatPoint) string {
	cfg.fill()
	var b strings.Builder
	fmt.Fprintf(&b, "Static TCP-compatibility audit: throughput under fixed loss, vs TCP(1/2)\n")
	fmt.Fprintf(&b, "%-12s %8s %10s %10s %8s %8s\n", "algorithm", "p", "Mbps", "TCP Mbps", "vs TCP", "vs model")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-12s %8.4f %10.3f %10.3f %8.2f %8.2f\n",
			p.Algo, p.P, p.Mbps, p.TCPMbps, p.VsTCP, p.VsModel)
	}
	return b.String()
}

func staticCompatExperiment(sw *Sweep, full bool, seed int64, _ MatrixConfig) (string, any) {
	cfg := StaticCompatConfig{Seed: seed}
	if !full {
		cfg.Warmup = 20
		cfg.Measure = 60
	}
	res := sw.StaticCompat(cfg)
	return RenderStaticCompat(cfg, res), res
}
