// Package exp contains one driver per table/figure of the paper's
// evaluation (Figures 3-20), built on the simulator substrate. Each
// driver has a Config with the paper's parameters as defaults, a typed
// Result, and a text renderer that prints the same rows/series the paper
// reports. Experiments is the roster of them: one row per experiment,
// whose Run picks between the paper's parameters and the reduced scale
// written beside the driver, so the full suite runs in seconds in tests,
// benchmarks and the CLI's default mode.
package exp

import (
	"fmt"

	"slowcc/internal/cc"
	"slowcc/internal/obs/probe"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

// Flow bundles the endpoints of one wired flow.
type Flow struct {
	// Sender is the transmitting endpoint (start it to begin).
	Sender cc.Sender
	// RecvBytes reads the receiver's cumulative byte counter.
	RecvBytes func() int64
	// SentBytes reads the sender's cumulative byte counter.
	SentBytes func() int64
	// Probes exposes the flow's observable internals (cwnd, srtt, rate,
	// loss event rate ...) for registration with an obs.Sampler; nil
	// when the algorithm declares none. Reading the vars never perturbs
	// the flow. A provider rather than an eager []probe.Var so wiring a
	// flow costs no allocations when nobody samples it (the macro
	// benchmark pins that).
	Probes probe.Provider
}

// probePair merges two probe providers into one: the algorithms whose
// observable state spans both endpoints (TFRC's loss-event rate and
// TEAR's emulated window live at the receiver) expose sender then
// receiver vars.
type probePair struct {
	snd, rcv probe.Provider
}

func (p probePair) ProbeVars() []probe.Var {
	return append(p.snd.ProbeVars(), p.rcv.ProbeVars()...)
}

// AlgoSpec is a named congestion control algorithm that knows how to
// wire one flow onto a topology fabric (a dumbbell or a parking-lot
// chain — algorithms never see which).
type AlgoSpec struct {
	// Name identifies the algorithm in tables, e.g. "TCP(1/8)".
	Name string
	// Make wires a flow with the given id in the forward direction.
	Make func(eng *sim.Engine, d topology.Fabric, flow int) Flow
}

// flows wires n flows of the algorithm onto d, numbered from first.
func (a AlgoSpec) flows(d *topology.Net, first, n int) []Flow {
	out := make([]Flow, n)
	for i := range out {
		out[i] = a.Make(d.Eng, d, first+i)
	}
	return out
}

// gammaSteps returns the paper's sweep of the slowness parameter:
// 1, 2, 4, ..., up to max (256 in the paper).
func gammaSteps(max int) []int {
	var out []int
	for g := 1; g <= max; g *= 2 {
		out = append(out, g)
	}
	return out
}

// startAll schedules every flow's sender to start at the given time on
// n's engine. When n is audited, each flow's byte counters and
// control-variable bounds are also registered with its auditor.
func startAll(n *topology.Net, flows []Flow, at sim.Time) {
	a := n.Cfg.Audit
	for i, f := range flows {
		if a != nil {
			watchFlow(a, fmt.Sprintf("flow-%d@%g", i, at), f)
		}
		n.Eng.At(at, f.Sender.Start)
	}
}

// sumRecv totals received bytes across flows.
func sumRecv(flows []Flow) int64 {
	var n int64
	for _, f := range flows {
		n += f.RecvBytes()
	}
	return n
}

// measureWindow is the measurement every throughput driver takes: run
// eng through the warm-up to from, snapshot each flow's received-byte
// counter (and any extra counter, after the flows), run on to to, and
// return the bytes each gained in between; bitsPerSec turns one into a
// rate. It schedules nothing, so it is the two RunUntil calls it replaces.
func measureWindow(eng *sim.Engine, from, to sim.Time, flows []Flow, extra ...func() int64) []int64 {
	snapshot := func() []int64 {
		out := make([]int64, 0, len(flows)+len(extra))
		for _, f := range flows {
			out = append(out, f.RecvBytes())
		}
		for _, read := range extra {
			out = append(out, read())
		}
		return out
	}
	eng.RunUntil(from)
	base := snapshot()
	eng.RunUntil(to)
	got := snapshot()
	for i := range got {
		got[i] -= base[i]
	}
	return got
}

// bitsPerSec is the rate of bytes moved over a window of the given length.
func bitsPerSec(bytes int64, over sim.Time) float64 {
	return float64(bytes) * 8 / float64(over)
}
