// Package slowcc is a packet-level network simulator and congestion
// control laboratory reproducing "Dynamic Behavior of Slowly-Responsive
// Congestion Control Algorithms" (Bansal, Balakrishnan, Floyd, Shenker —
// SIGCOMM 2001).
//
// This package is the library through which a reader re-runs the
// paper's scenarios, and it exports only what an example uses: every
// name here is reached from examples/ or from an Example function of
// example_test.go, and TestEverythingIsReached fails on one that is not
// (DESIGN.md §3.4). The commands under cmd/ import internal/ directly.
// The subsystems themselves live under internal/:
//
//   - a deterministic discrete-event engine (NewEngine);
//   - links, DropTail and RED queues, scripted loss patterns
//     (CountPattern), and the paper's single-bottleneck dumbbell
//     (NewDumbbell; its forward bottleneck is Fwd[0], its reverse
//     bottleneck Rev[0]);
//   - the paper's congestion control algorithms: TCP(b) and TFRC(k) by
//     constructor, and the whole roster — SQRT, IIAD, RAP, TEAR, CBR —
//     by name through ParseAlgo;
//   - the paper's metrics (loss rate, smoothness) and per-packet
//     tracing; and
//   - the evaluation roster, Figures 3-20 with the ablations and
//     extensions (Experiments), plus the drivers the examples call.
//
// The quickest way in:
//
//	eng := slowcc.NewEngine(1)
//	d := slowcc.NewDumbbell(eng, slowcc.DumbbellConfig{Rate: 10e6})
//	tcp := slowcc.TCP(0.5).Make(eng, d, 1)
//	tfrc := slowcc.TFRC(slowcc.TFRCOptions{K: 8}).Make(eng, d, 2)
//	eng.At(0, tcp.Sender.Start)
//	eng.At(0, tfrc.Sender.Start)
//	eng.RunUntil(60)
//	fmt.Println(tcp.RecvBytes(), tfrc.RecvBytes())
package slowcc

import (
	"slowcc/internal/exp"
	"slowcc/internal/metrics"
	"slowcc/internal/netem"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
	"slowcc/internal/trace"
)

// Engine is the discrete-event simulation engine. Time is in seconds.
type Engine = sim.Engine

// Time is a simulated timestamp or duration in seconds.
type Time = sim.Time

// NewEngine returns a deterministic engine. It draws no random numbers,
// so seed changes nothing; the scenario's seed goes in DumbbellConfig.
func NewEngine(seed int64) *Engine { return sim.New(seed) }

// DumbbellConfig configures the single-bottleneck topology. The
// substrate is always the paper's — 50 ms propagation RTT, RED with
// thresholds at 0.25/1.25 BDP, buffer 2.5 BDP — and the zero value adds
// its 10 Mbps bottleneck.
type DumbbellConfig = topology.Config

// Dumbbell is the instantiated topology: the one-hop Net, with the
// forward bottleneck at Fwd[0] and the reverse bottleneck at Rev[0].
type Dumbbell = topology.Net

// NewDumbbell builds a dumbbell on eng; its links keep the paper's
// names (lr, rl) in counter names, probes and journeys.
func NewDumbbell(eng *Engine, cfg DumbbellConfig) *Dumbbell { return topology.New(eng, cfg) }

// Flow bundles the endpoints of a wired flow.
type Flow = exp.Flow

// Algorithm is a named congestion control algorithm that can wire flows
// onto a dumbbell.
type Algorithm = exp.AlgoSpec

// TFRCOptions tunes the TFRC algorithm.
type TFRCOptions = exp.TFRCOpts

// TCP returns TCP(b): the full TCP machinery with TCP-compatible
// AIMD(b) window rules; TCP(0.5) is standard TCP.
func TCP(b float64) Algorithm { return exp.TCPAlgo(b) }

// TFRC returns TFRC(k) per the options.
func TFRC(o TFRCOptions) Algorithm { return exp.TFRCAlgo(o) }

// CountPattern drops one packet after every Intervals[i] arrivals,
// cycling.
type CountPattern = netem.CountPattern

// LossMonitor tallies arrivals and drops at a link in time bins.
type LossMonitor = metrics.LossMonitor

// NewLossMonitor returns a monitor with the given bin width; attach its
// Tap to a link.
func NewLossMonitor(width Time) *LossMonitor { return metrics.NewLossMonitor(width) }

// Meter samples a counter periodically into a rate series.
type Meter = metrics.Meter

// NewMeter starts sampling read() every width seconds.
func NewMeter(eng *Engine, width Time, read func() int64) *Meter {
	return metrics.NewMeter(eng, width, read)
}

// Smoothness summarizes rate variability; ComputeSmoothness evaluates a
// series.
type Smoothness = metrics.Smoothness

// ComputeSmoothness evaluates a rate series.
func ComputeSmoothness(rates []float64) Smoothness { return metrics.ComputeSmoothness(rates) }

// Tracer records per-packet events (sends, receipts, drops, ECN marks)
// and exports them as TSV or binned rate series. Attach its LinkTap to
// a link with AddTap.
type Tracer = trace.Recorder

// The trace event operations Tracer.Filter and Tracer.BinRates select by.
const (
	TraceRecv = trace.Recv
	TraceDrop = trace.Drop
)

// ParseAlgo returns any algorithm of the roster — the only way to SQRT,
// IIAD, RAP, TEAR and CBR — from the syntax slowcctrace -flow and
// slowccsim -matrix share: name[:arg], e.g. "tcp:0.5", "tfrc:8", "tear",
// "cbr:2.5e6".
func ParseAlgo(spec string) (Algorithm, error) { return exp.ParseAlgoSpec(spec) }
