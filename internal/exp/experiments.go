package exp

import "slices"

// Experiment is one row of the evaluation roster: everything the
// repository knows about an experiment outside its own driver file.
// slowccsim's -list, -exp NAME and -exp all, the run manifest and the
// facade's Experiments all range over the rows, so adding an
// experiment is its driver file plus one row.
type Experiment struct {
	// Name is what -exp selects, case-insensitively.
	Name string
	// Desc is the one-line description -list prints.
	Desc string
	// Run runs the experiment with the paper's full parameters, or at the
	// reduced scale written beside its driver, and returns the rendered
	// tables and the typed result they were rendered from. Its sweeps run
	// under sw, the invocation's settings. matrix carries what the
	// invocation overrode of the matrix row's configuration; no other row
	// reads it.
	Run func(sw *Sweep, full bool, seed int64, matrix MatrixConfig) (text string, data any)
}

// runFunc is the type of Experiment.Run.
type runFunc = func(sw *Sweep, full bool, seed int64, matrix MatrixConfig) (text string, data any)

// experiments is the roster, in the order -list prints it.
var experiments = []Experiment{
	{"fig3", "drop-rate timeline when a CBR source restarts", fig3Experiment},
	{"fig45", "stabilization time (Fig 4) and cost (Fig 5) vs gamma", fig45Experiment(false)},
	{"fig6", "flash crowd vs TFRC(256) with/without self-clocking", fig6Experiment},
	{"fig7", "long-term fairness: TCP vs TFRC(6) under oscillation", fairnessExperiment("", "Figure 7", DefaultFig7())},
	{"fig8", "long-term fairness: TCP vs TCP(1/8)", fairnessExperiment("", "Figure 8", DefaultFig8())},
	{"fig9", "long-term fairness: TCP vs SQRT(1/2)", fairnessExperiment("", "Figure 9", DefaultFig9())},
	{"fig10", "0.1-fair convergence time for TCP(b)", convergenceExperiment("Figure 10: TCP(b)", (*Sweep).Fig10)},
	{"fig11", "analytic expected ACKs to 0.1-fairness", fig11Experiment},
	{"fig12", "0.1-fair convergence time for TFRC(k)", convergenceExperiment("Figure 12: TFRC(k)", (*Sweep).Fig12)},
	{"fig13", "f(20)/f(200) utilization after bandwidth doubling", fig13Experiment},
	{"fig14", "utilization and drop rate under 3:1 oscillation (Figs 14+15)", oscillationExperiment("Figures 14/15 (3:1)", 0)},
	{"fig16", "utilization under 10:1 oscillation", oscillationExperiment("Figure 16 (10:1)", 13.5e6)},
	{"fig17", "smoothness on the mild bursty pattern: TFRC vs TCP(1/8)", smoothnessExperiment("Figure 17", DefaultFig17())},
	{"fig18", "smoothness on the severe pattern (TFRC's worst case)", smoothnessExperiment("Figure 18", DefaultFig18())},
	{"fig19", "smoothness: IIAD vs SQRT on the mild pattern", smoothnessExperiment("Figure 19", DefaultFig19())},
	{"fig20", "Appendix A throughput models", fig20Experiment},
	{"ablation-droptail", "Fig 4/5 scenario with tail-drop instead of RED", fig45Experiment(true)},
	{"ablation-ecn", "long-term fairness with an ECN-marking bottleneck",
		fairnessExperiment("Ablation: ECN marking bottleneck, ECN-TCP(1/2) vs ECN-TCP(1/8)\n", "ECN fairness",
			FairnessConfig{A: ECNTCPAlgo(0.5), B: ECNTCPAlgo(1.0 / 8), ECN: true})},
	{"ablation-tear", "TEAR in the stabilization and oscillation scenarios", tearExperiment},
	{"outage", "robustness extension: flash crowd onto a recovering bottleneck", outageExperiment},
	{"matrix", "N x N cc pairwise interaction matrix across topologies and conditions", matrixExperiment},
	{"static-compat", "static TCP-compatibility audit under fixed loss", staticCompatExperiment},
	{"rtt-fairness", "extension: unequal-RTT flows sharing the bottleneck", rttFairnessExperiment},
	{"queue-dynamics", "extension: queue oscillation by traffic type", queueDynamicsExperiment},
}

// Experiments returns the roster in listing order.
func Experiments() []Experiment { return slices.Clone(experiments) }
