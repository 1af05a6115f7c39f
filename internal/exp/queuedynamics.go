package exp

import (
	"fmt"
	"strings"

	"slowcc/internal/metrics"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

// QueueDynamicsConfig is an extension experiment following the paper's
// related-work thread (its reference [7] studies SlowCC's effect on
// queue dynamics): homogeneous long-lived traffic of each type shares
// the RED bottleneck, and we summarize the queue-length process —
// smoother senders should keep the queue steadier.
type QueueDynamicsConfig struct {
	// Algos are the traffic types compared.
	Algos []AlgoSpec
	// Flows per run.
	Flows int
	// Rate is the bottleneck bandwidth.
	Rate float64
	// Warmup and Measure set the timeline.
	Warmup, Measure sim.Time
	// DropTail switches the bottleneck discipline.
	DropTail bool
	// Seed seeds each run.
	Seed int64
}

// queueSamplePeriod is the queue-length sampling period: a fixed 50 ms,
// which is one RTT only on the default dumbbell.
const queueSamplePeriod sim.Time = 0.05

func (c *QueueDynamicsConfig) fill() {
	if c.Algos == nil {
		c.Algos = []AlgoSpec{
			TCPAlgo(0.5),
			TCPAlgo(1.0 / 8),
			TFRCAlgo(TFRCOpts{K: 6, HistoryDiscounting: true}),
		}
	}
	if c.Flows == 0 {
		c.Flows = 10
	}
	if c.Rate == 0 {
		c.Rate = 10e6
	}
	if c.Warmup == 0 {
		c.Warmup = 30
	}
	if c.Measure == 0 {
		c.Measure = 120
	}
}

// QueueDynamicsResult summarizes the queue process for one traffic
// type.
type QueueDynamicsResult struct {
	Algo string
	// Queue summarizes the sampled queue lengths (packets) after
	// warmup.
	Queue metrics.Summary
	// CoV is StdDev/Mean of the queue process: the oscillation measure.
	CoV float64
	// DropRate is the bottleneck loss fraction over the measurement
	// window.
	DropRate float64
	// Utilization is the delivered fraction of the bottleneck rate.
	Utilization float64
}

// QueueDynamics runs the comparison, one traffic type per run, in
// parallel.
func (sw *Sweep) QueueDynamics(cfg QueueDynamicsConfig) []QueueDynamicsResult {
	cfg.fill()
	return supervisedMap(sw, len(cfg.Algos), func(c *Cell) QueueDynamicsResult {
		return runQueueDynamics(c, cfg, cfg.Algos[c.Index()])
	})
}

func runQueueDynamics(c *Cell, cfg QueueDynamicsConfig, algo AlgoSpec) QueueDynamicsResult {
	eng, d := c.newScenario(cfg.Seed, topology.Config{Rate: cfg.Rate, DropTail: cfg.DropTail})
	lossMon := metrics.NewLossMonitor(0.5)
	lossMon.EnsureHorizon(cfg.Warmup + cfg.Measure)
	d.Fwd[0].AddTap(lossMon.Tap())
	qMon := metrics.NewQueueMonitor(eng, queueSamplePeriod, d.Fwd[0].Q.Len)

	flows := algo.flows(d, 1, cfg.Flows)
	startAll(d, flows, 0)
	withReverseTraffic(eng, d, 2)

	got := measureWindow(eng, cfg.Warmup, cfg.Warmup+cfg.Measure, nil, func() int64 { return sumRecv(flows) })

	sum := qMon.Summary(int(cfg.Warmup / queueSamplePeriod))
	res := QueueDynamicsResult{Algo: algo.Name, Queue: sum}
	if sum.Mean > 0 {
		res.CoV = sum.StdDev / sum.Mean
	}
	res.DropRate = lossMon.RateOver(cfg.Warmup, cfg.Warmup+cfg.Measure)
	res.Utilization = metrics.Utilization(got[0], cfg.Rate, cfg.Measure)
	return res
}

// RenderQueueDynamics prints the comparison table.
func RenderQueueDynamics(cfg QueueDynamicsConfig, res []QueueDynamicsResult) string {
	cfg.fill()
	var b strings.Builder
	disc := "RED"
	if cfg.DropTail {
		disc = "DropTail"
	}
	fmt.Fprintf(&b, "Queue dynamics (extension): %d homogeneous flows, %s bottleneck\n", cfg.Flows, disc)
	fmt.Fprintf(&b, "%-12s %10s %10s %10s %10s %10s %10s\n",
		"algorithm", "mean q", "p90 q", "max q", "queue CoV", "drop rate", "util")
	for _, r := range res {
		fmt.Fprintf(&b, "%-12s %10.1f %10.1f %10.1f %10.3f %10.3f %10.3f\n",
			r.Algo, r.Queue.Mean, r.Queue.P90, r.Queue.Max, r.CoV, r.DropRate, r.Utilization)
	}
	return b.String()
}

// queueDynamicsExperiment runs the comparison on a RED and then on a
// tail-drop bottleneck.
func queueDynamicsExperiment(sw *Sweep, full bool, seed int64, _ MatrixConfig) (string, any) {
	cfg := QueueDynamicsConfig{Seed: seed}
	if !full {
		cfg.Warmup = 15
		cfg.Measure = 60
	}
	res := sw.QueueDynamics(cfg)
	cfgDT := cfg
	cfgDT.DropTail = true
	resDT := sw.QueueDynamics(cfgDT)
	return RenderQueueDynamics(cfg, res) + "\n" + RenderQueueDynamics(cfgDT, resDT),
		map[string]any{"red": res, "droptail": resDT}
}
