package exp

import (
	"fmt"
	"strings"

	"slowcc/internal/faults"
	"slowcc/internal/netem"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

// OutageConfig is the robustness extension of the Figure 6 scenario:
// long-lived SlowCC background traffic loses its bottleneck entirely for
// OutageDur seconds, and while the link is still refilling a flash crowd
// of short TCP transfers arrives. The paper argues slowly-responsive
// algorithms are at their worst exactly here — after an abrupt change
// they take many RTTs to re-acquire bandwidth, so the question is how
// much of the post-outage link each background type cedes to the crowd
// and how long full utilization takes to return.
type OutageConfig struct {
	// Flows is the number of background flows.
	Flows int
	// OutageAt and OutageDur place the bottleneck blackout (default
	// t=25s for 5s). The flash crowd lands the instant the outage ends.
	OutageAt  sim.Time
	OutageDur sim.Time
	// End bounds the run.
	End sim.Time
	// Seed seeds each run; the outage injector shares it.
	Seed int64
}

// outageBackgrounds are the background traffic types compared: TCP(1/2),
// TCP(1/8), TFRC(256).
var outageBackgrounds = []AlgoSpec{
	TCPAlgo(0.5),
	TCPAlgo(1.0 / 8),
	TFRCAlgo(TFRCOpts{K: 256}),
}

// outageRate is the bottleneck bandwidth; outageCrowdDuration and
// outageCrowdRate shape the flash crowd that lands on the recovering
// link (5 s of 200 flows/s, each transfer Figure 6's crowdPkts long);
// outageRecoverFrac is the utilization fraction that counts as
// recovered.
const (
	outageRate          = 10e6
	outageCrowdDuration = 5
	outageCrowdRate     = 200
	outageRecoverFrac   = 0.8
)

// crowdStart is when the flash crowd arrives: the instant the outage
// ends.
func (c *OutageConfig) crowdStart() sim.Time { return c.OutageAt + c.OutageDur }

func (c *OutageConfig) fill() {
	if c.Flows == 0 {
		c.Flows = 8
	}
	if c.OutageAt == 0 {
		c.OutageAt = 25
	}
	if c.OutageDur == 0 {
		c.OutageDur = 5
	}
	if c.End == 0 {
		c.End = 70
	}
}

// OutageResult is the outcome for one background type.
type OutageResult struct {
	Background string
	// BackgroundRate and CrowdRate are aggregate delivered throughputs
	// in bits/s per bin.
	BackgroundRate []TimePoint
	CrowdRate      []TimePoint
	// RecoveryTime is how long after the link came back the combined
	// traffic took to reach outageRecoverFrac of the bottleneck rate, held for
	// two consecutive bins; -1 means it never did before End.
	RecoveryTime sim.Time
	// OutageDrops counts packets the blackout cost (refused at the down
	// link plus queue overflow while it was dark).
	OutageDrops int64
	// Transitions is the bottleneck's down/up transition count — 2 for a
	// clean single outage; anything else means the schedule misfired.
	Transitions int64
	// CrowdCompleted, CrowdBytes, CrowdMeanCompletion summarize the
	// flash crowd exactly as in Figure 6.
	CrowdCompleted      int
	CrowdBytes          int64
	CrowdMeanCompletion sim.Time
}

// Outage runs the blackout scenario once per background type, as
// supervised sweep cells.
func (sw *Sweep) Outage(cfg OutageConfig) []OutageResult {
	cfg.fill()
	return supervisedMap(sw, len(outageBackgrounds), func(c *Cell) OutageResult {
		return runOutage(c, cfg, outageBackgrounds[c.Index()])
	})
}

func runOutage(c *Cell, cfg OutageConfig, bg AlgoSpec) OutageResult {
	fc := faults.Config{
		Windows: []faults.Window{{At: cfg.OutageAt, Dur: cfg.OutageDur}},
		Policy:  netem.DownQueue,
	}
	var d *topology.Net
	var dropsBefore, dropsAfter int64
	crowd := runCrowd(c, Fig6Config{
		Flows: cfg.Flows, Rate: outageRate,
		CrowdStart: cfg.crowdStart(), CrowdDuration: outageCrowdDuration,
		CrowdRate: outageCrowdRate, End: cfg.End, Seed: cfg.Seed,
	}, bg, &fc, func(eng *sim.Engine, n *topology.Net) {
		d = n
		// Snapshot total drops around the blackout so OutageDrops isolates
		// what the outage itself cost from ordinary congestion loss.
		eng.At(cfg.OutageAt, func() { dropsBefore = d.Fwd[0].Stats.Drops })
		eng.At(cfg.OutageAt+cfg.OutageDur, func() { dropsAfter = d.Fwd[0].Stats.Drops })
	})
	return OutageResult{
		Background:     crowd.Background,
		BackgroundRate: crowd.BackgroundRate,
		CrowdRate:      crowd.CrowdRate,
		RecoveryTime: recoveryTime(crowd.BackgroundRate, crowd.CrowdRate,
			cfg.OutageAt+cfg.OutageDur, outageRecoverFrac*outageRate),
		OutageDrops:         dropsAfter - dropsBefore,
		Transitions:         d.Fwd[0].Transitions,
		CrowdCompleted:      crowd.CrowdCompleted,
		CrowdBytes:          crowd.CrowdBytes,
		CrowdMeanCompletion: crowd.CrowdMeanCompletion,
	}
}

// recoveryTime scans the binned timelines for the first moment at or
// after `from` where combined throughput sustains `target` bits/s for
// two consecutive bins, returning the delay from `from` (-1: never).
func recoveryTime(bg, crowd []TimePoint, from sim.Time, target float64) sim.Time {
	streak := 0
	for i, p := range bg {
		v := p.V
		if i < len(crowd) {
			v += crowd[i].V
		}
		if p.T < from || v < target {
			streak = 0
			continue
		}
		streak++
		if streak == 2 {
			// Recovery dates from the start of the first qualifying bin.
			return bg[i-1].T - from
		}
	}
	return -1
}

// RenderOutage prints throughput timelines around the blackout plus the
// recovery summary.
func RenderOutage(cfg OutageConfig, res []OutageResult) string {
	cfg.fill()
	var b strings.Builder
	fmt.Fprintf(&b, "Outage recovery: bottleneck dark %.0f-%.0fs, flash crowd at t=%.0fs\n",
		cfg.OutageAt, cfg.OutageAt+cfg.OutageDur, cfg.crowdStart())
	timelines := make([]Fig6Result, len(res))
	for i, r := range res {
		timelines[i] = Fig6Result{Background: r.Background, BackgroundRate: r.BackgroundRate, CrowdRate: r.CrowdRate}
	}
	writeCrowdTimelines(&b, cfg.OutageAt-5, cfg.crowdStart()+20, timelines)
	for _, r := range res {
		rec := "never"
		if r.RecoveryTime >= 0 {
			rec = fmt.Sprintf("%.1fs", r.RecoveryTime)
		}
		fmt.Fprintf(&b, "%-16s recovered to %.0f%% in %-7s outage cost %5d pkts; crowd: %4d transfers, mean latency %6.3fs\n",
			r.Background, outageRecoverFrac*100, rec, r.OutageDrops, r.CrowdCompleted, r.CrowdMeanCompletion)
	}
	return b.String()
}

func outageExperiment(sw *Sweep, full bool, seed int64, _ MatrixConfig) (string, any) {
	cfg := OutageConfig{Seed: seed}
	if !full {
		cfg.OutageAt = 15
		cfg.OutageDur = 3
		cfg.End = 45
		cfg.Flows = 6
	}
	res := sw.Outage(cfg)
	return RenderOutage(cfg, res), res
}
