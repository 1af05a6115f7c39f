package exp

import (
	"fmt"
	"strings"

	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

// Fig13Config is the f(k) scenario (Section 4.2.3): ten identical flows
// share a bottleneck; at StopAt five of them stop, doubling the
// bandwidth available to the rest, and f(k) is the link utilization over
// the following k round-trip times.
type Fig13Config struct {
	// StopAt is the moment half the flows stop (paper: t=500s).
	StopAt sim.Time
	// MaxGamma bounds the slowness sweep.
	MaxGamma int
	// Seed seeds each run.
	Seed int64
}

// fig13Rate is the bottleneck bandwidth (paper: 10 Mbps), and
// fig13Flows the total flow count (paper: 10), half of which stop.
const (
	fig13Rate  = 10e6
	fig13Flows = 10
)

// fig13Ks are the f(k) horizons (paper: 20 and 200 RTTs).
var fig13Ks = [...]int{20, 200}

func (c *Fig13Config) fill() {
	if c.StopAt == 0 {
		c.StopAt = 500
	}
	if c.MaxGamma == 0 {
		c.MaxGamma = 256
	}
}

// Fig13Point is f(k) for one (family, gamma).
type Fig13Point struct {
	Family string
	Gamma  int
	// F maps k to the measured f(k).
	F map[int]float64
}

// Fig13 runs the sweep for TCP(1/b), SQRT(1/b) and TFRC(b). Following
// the paper, the TFRC runs disable history discounting to isolate the
// equation-driven response.
func (sw *Sweep) Fig13(cfg Fig13Config) []Fig13Point {
	cfg.fill()
	families := []struct {
		name string
		mk   func(g int) AlgoSpec
	}{
		{"TCP(1/b)", func(g int) AlgoSpec { return TCPAlgo(1 / float64(g)) }},
		{"SQRT(1/b)", func(g int) AlgoSpec { return SQRTAlgo(1 / float64(g)) }},
		{"TFRC(b)", func(g int) AlgoSpec { return TFRCAlgo(TFRCOpts{K: g}) }},
	}
	type job struct {
		family string
		gamma  int
		algo   AlgoSpec
	}
	var jobs []job
	for _, fam := range families {
		for _, g := range gammaSteps(cfg.MaxGamma) {
			jobs = append(jobs, job{fam.name, g, fam.mk(g)})
		}
	}
	return supervisedMap(sw, len(jobs), func(c *Cell) Fig13Point {
		j := jobs[c.Index()]
		return runFig13(c, cfg, j.family, j.gamma, j.algo)
	})
}

func runFig13(c *Cell, cfg Fig13Config, family string, gamma int, algo AlgoSpec) Fig13Point {
	eng, d := c.newScenario(cfg.Seed, topology.Config{Rate: fig13Rate})
	rtt := d.PropRTT()

	flows := algo.flows(d, 1, fig13Flows)
	startAll(d, flows, 0)
	half := fig13Flows / 2
	for _, f := range flows[half:] {
		f := f
		eng.At(cfg.StopAt, f.Sender.Stop)
	}

	eng.RunUntil(cfg.StopAt)
	// Measure delivered bytes of the surviving flows over each k-RTT
	// window after the stop.
	base := sumRecv(flows[:half])
	pt := Fig13Point{Family: family, Gamma: gamma, F: map[int]float64{}}
	type mark struct {
		k  int
		at sim.Time
	}
	var marks []mark
	for _, k := range fig13Ks {
		marks = append(marks, mark{k, cfg.StopAt + sim.Time(k)*rtt})
	}
	for _, m := range marks {
		eng.RunUntil(m.at)
		got := float64(sumRecv(flows[:half])-base) * 8
		pt.F[m.k] = got / (fig13Rate * float64(m.at-cfg.StopAt))
	}
	return pt
}

// RenderFig13 prints the f(k) table.
func RenderFig13(cfg Fig13Config, pts []Fig13Point) string {
	cfg.fill()
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 13: link utilization f(k) after the available bandwidth doubles\n")
	fmt.Fprintf(&b, "%-10s %6s", "family", "gamma")
	for _, k := range fig13Ks {
		fmt.Fprintf(&b, " %9s", fmt.Sprintf("f(%d)", k))
	}
	b.WriteByte('\n')
	for _, p := range pts {
		fmt.Fprintf(&b, "%-10s %6d", p.Family, p.Gamma)
		for _, k := range fig13Ks {
			fmt.Fprintf(&b, " %9.3f", p.F[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func fig13Experiment(sw *Sweep, full bool, seed int64, _ MatrixConfig) (string, any) {
	cfg := Fig13Config{Seed: seed}
	if !full {
		cfg.StopAt = 60
		cfg.MaxGamma = 16
	}
	res := sw.Fig13(cfg)
	return RenderFig13(cfg, res), res
}
