package exp

import (
	"fmt"
	"strings"

	"slowcc/internal/faults"
	"slowcc/internal/metrics"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
	"slowcc/internal/workload"
)

// Fig6Config is the flash-crowd scenario (Section 4.1.2): long-lived
// SlowCC background traffic, hit at CrowdStart by a stream of short TCP
// transfers.
type Fig6Config struct {
	// Backgrounds are the background traffic types to compare (paper:
	// TCP(1/2), TFRC(256), TFRC(256) with self-clocking).
	Backgrounds []AlgoSpec
	// Flows is the number of background flows.
	Flows int
	// Rate is the bottleneck bandwidth.
	Rate float64
	// CrowdStart, CrowdDuration, CrowdRate shape the flash crowd
	// (paper: t=25, 5s, 200 flows/s).
	CrowdStart    sim.Time
	CrowdDuration sim.Time
	CrowdRate     float64
	// End bounds the run.
	End sim.Time
	// Seed seeds the run.
	Seed int64
}

// crowdPkts is the length of each flash-crowd transfer (paper: 10
// packets), and crowdBin the reporting granularity of a crowd run's
// timelines. Figure 6 and the outage scenario share both.
const (
	crowdPkts          = 10
	crowdBin  sim.Time = 0.5
)

func (c *Fig6Config) fill() {
	if c.Backgrounds == nil {
		c.Backgrounds = []AlgoSpec{
			TCPAlgo(0.5),
			TFRCAlgo(TFRCOpts{K: 256}),
			TFRCAlgo(TFRCOpts{K: 256, Conservative: true}),
		}
	}
	if c.Flows == 0 {
		c.Flows = 8
	}
	if c.Rate == 0 {
		c.Rate = 10e6
	}
	if c.CrowdStart == 0 {
		c.CrowdStart = 25
	}
	if c.CrowdDuration == 0 {
		c.CrowdDuration = 5
	}
	if c.CrowdRate == 0 {
		c.CrowdRate = 200
	}
	if c.End == 0 {
		c.End = 60
	}
}

// Fig6Result is the timeline for one background type.
type Fig6Result struct {
	Background string
	// BackgroundRate and CrowdRate are aggregate throughputs in bits/s
	// per bin.
	BackgroundRate []TimePoint
	CrowdRate      []TimePoint
	// CrowdCompleted counts finished transfers; CrowdBytes the crowd's
	// total delivered volume.
	CrowdCompleted int
	CrowdBytes     int64
	// CrowdMeanCompletion is the mean transfer latency of completed
	// crowd flows.
	CrowdMeanCompletion sim.Time
}

// Fig6 runs the flash-crowd scenario once per background type, as
// supervised sweep cells.
func (sw *Sweep) Fig6(cfg Fig6Config) []Fig6Result {
	cfg.fill()
	return supervisedMap(sw, len(cfg.Backgrounds), func(c *Cell) Fig6Result {
		return runCrowd(c, cfg, cfg.Backgrounds[c.Index()], nil, nil)
	})
}

// runCrowd is one flash-crowd run, the scenario Fig6 and Outage share:
// cfg.Flows long-lived bg flows and reverse traffic from t=0, the crowd,
// a throughput meter on each, run to cfg.End. fc, when non-nil, is the
// fault configuration on the bottleneck (nil leaves the global one);
// arm, when non-nil, is called with the wired scenario just before the
// engine starts, so events it schedules follow the scenario's own in
// sequence order.
func runCrowd(c *Cell, cfg Fig6Config, bg AlgoSpec, fc *faults.Config, arm func(*sim.Engine, *topology.Net)) Fig6Result {
	eng, d := c.buildScenario(cfg.Seed, topology.Config{Rate: cfg.Rate}, nil, fc, 0)

	flows := bg.flows(d, 1, cfg.Flows)
	startAll(d, flows, 0)
	withReverseTraffic(eng, d, 2)

	crowd := workload.NewFlashCrowd(eng, d, workload.FlashCrowdConfig{
		Start:       cfg.CrowdStart,
		Duration:    cfg.CrowdDuration,
		RatePerSec:  cfg.CrowdRate,
		PktsPerFlow: crowdPkts,
		FirstFlowID: 10000,
	})

	bgMeter := metrics.NewMeter(eng, crowdBin, func() int64 { return sumRecv(flows) })
	crowdMeter := metrics.NewMeter(eng, crowdBin, crowd.TotalBytesRecv)
	if arm != nil {
		arm(eng, d)
	}
	eng.RunUntil(cfg.End)

	res := Fig6Result{Background: bg.Name, CrowdCompleted: crowd.Completed, CrowdBytes: crowd.TotalBytesRecv()}
	for i, r := range bgMeter.Rates() {
		res.BackgroundRate = append(res.BackgroundRate, TimePoint{T: sim.Time(i+1) * crowdBin, V: r * 8})
	}
	for i, r := range crowdMeter.Rates() {
		res.CrowdRate = append(res.CrowdRate, TimePoint{T: sim.Time(i+1) * crowdBin, V: r * 8})
	}
	if n := len(crowd.CompletionTimes); n > 0 {
		var s sim.Time
		for _, ct := range crowd.CompletionTimes {
			s += ct
		}
		res.CrowdMeanCompletion = s / sim.Time(n)
	}
	return res
}

// writeCrowdTimelines prints one background/crowd throughput column
// pair per result and one row per bin with from <= t <= to.
func writeCrowdTimelines(b *strings.Builder, from, to sim.Time, res []Fig6Result) {
	fmt.Fprintf(b, "%7s", "t(s)")
	for _, r := range res {
		fmt.Fprintf(b, " %14s %14s", r.Background+"/bg", "crowd")
	}
	b.WriteByte('\n')
	for i := 0; len(res) > 0 && i < len(res[0].BackgroundRate); i++ {
		t := res[0].BackgroundRate[i].T
		if t < from || t > to {
			continue
		}
		fmt.Fprintf(b, "%7.1f", t)
		for _, r := range res {
			cv := 0.0
			if i < len(r.CrowdRate) {
				cv = r.CrowdRate[i].V
			}
			fmt.Fprintf(b, " %14.2f %14.2f", r.BackgroundRate[i].V/1e6, cv/1e6)
		}
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
}

// RenderFig6 prints throughput timelines around the crowd plus summary
// statistics.
func RenderFig6(cfg Fig6Config, res []Fig6Result) string {
	cfg.fill()
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: aggregate throughput (Mbps) with a flash crowd at t=%.0fs\n", cfg.CrowdStart)
	writeCrowdTimelines(&b, cfg.CrowdStart-5, cfg.CrowdStart+20, res)
	for _, r := range res {
		fmt.Fprintf(&b, "%-16s crowd completed %4d transfers, %7.2f MB, mean latency %6.3fs\n",
			r.Background, r.CrowdCompleted, float64(r.CrowdBytes)/1e6, r.CrowdMeanCompletion)
	}
	return b.String()
}

func fig6Experiment(sw *Sweep, full bool, seed int64, _ MatrixConfig) (string, any) {
	cfg := Fig6Config{Seed: seed}
	if !full {
		cfg.CrowdStart = 15
		cfg.End = 40
		cfg.Flows = 6
	}
	res := sw.Fig6(cfg)
	return RenderFig6(cfg, res), res
}
