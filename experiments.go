package slowcc

import "slowcc/internal/exp"

// The paper's experiments. Experiments is the whole evaluation as one
// roster; beside it, the drivers the examples and README call directly
// are re-exported from internal/exp with their Config (zero fields take
// the paper's parameters), typed result and Render function. The
// single-scenario configs (FairnessConfig, SmoothnessConfig) have no
// default for what is under test — A and B, Algos and Pattern — and must
// be given it; DefaultFig7 and DefaultFig17-19 are the paper's choices.
// Each driver runs under a fresh exp.Sweep, with no settings.

// Experiments returns the evaluation roster — Figures 3-20, the
// ablations and the extensions — in the order slowccsim -list prints it.
// Each row runs its experiment, its sweeps under the exp.Sweep it is
// given, at the paper's scale (full) or a reduced one and returns the
// rendered tables with the typed result; matrix overrides the matrix row's configuration and no other row reads it.
func Experiments() []exp.Experiment { return exp.Experiments() }

// Stabilization sweep (Section 4.1, Figures 4-5).
type (
	// Fig45Config sweeps the slowness parameter for Figures 4 and 5.
	Fig45Config = exp.Fig45Config
	// Fig45Point is one (family, gamma) stabilization measurement.
	Fig45Point = exp.Fig45Point
)

// Fig45 runs the Figure 4/5 gamma sweep.
func Fig45(cfg Fig45Config) []Fig45Point { return new(exp.Sweep).Fig45(cfg) }

// Flash crowd (Section 4.1.2, Figure 6).
type (
	// Fig6Config is the flash-crowd scenario.
	Fig6Config = exp.Fig6Config
	// Fig6Result is its outcome for one background type.
	Fig6Result = exp.Fig6Result
)

// Fig6 runs the flash-crowd scenario per background type.
func Fig6(cfg Fig6Config) []Fig6Result { return new(exp.Sweep).Fig6(cfg) }

// RenderFig6 formats the Figure 6 timelines.
func RenderFig6(cfg Fig6Config, res []Fig6Result) string { return exp.RenderFig6(cfg, res) }

// Long-term fairness (Section 4.2.1, Figures 7-9).
type (
	// FairnessConfig is the oscillating-bandwidth fairness scenario.
	FairnessConfig = exp.FairnessConfig
	// FairnessPoint is the outcome at one CBR period.
	FairnessPoint = exp.FairnessPoint
)

// Fairness runs the CBR-period sweep.
func Fairness(cfg FairnessConfig) []FairnessPoint { return new(exp.Sweep).Fairness(cfg) }

// DefaultFig7 is Figure 7's configuration, TCP vs TFRC(6).
func DefaultFig7() FairnessConfig { return exp.DefaultFig7() }

// RenderFairness formats a Figure 7/8/9 table.
func RenderFairness(title string, cfg FairnessConfig, pts []FairnessPoint) string {
	return exp.RenderFairness(title, cfg, pts)
}

// Utilization under oscillation (Section 4.2.4, Figures 14-16).
type (
	// OscillationConfig is the square-wave utilization scenario.
	OscillationConfig = exp.OscillationConfig
	// OscillationPoint is one (algorithm, period) outcome.
	OscillationPoint = exp.OscillationPoint
)

// Oscillation runs the utilization sweep.
func Oscillation(cfg OscillationConfig) []OscillationPoint { return new(exp.Sweep).Oscillation(cfg) }

// RenderOscillation formats the Figure 14/15/16 tables.
func RenderOscillation(title string, cfg OscillationConfig, pts []OscillationPoint) string {
	return exp.RenderOscillation(title, cfg, pts)
}

// Smoothness under scripted loss (Section 4.3, Figures 17-19).
type (
	// SmoothnessConfig is the scripted-loss smoothness scenario.
	SmoothnessConfig = exp.SmoothnessConfig
	// SmoothnessResult is its outcome for one algorithm.
	SmoothnessResult = exp.SmoothnessResult
)

// RunSmoothness runs the scenario for each configured algorithm.
func RunSmoothness(cfg SmoothnessConfig) []SmoothnessResult { return new(exp.Sweep).RunSmoothness(cfg) }

// DefaultFig17 compares TFRC and TCP(1/8) on the mild pattern.
func DefaultFig17() SmoothnessConfig { return exp.DefaultFig17() }

// DefaultFig18 is the severe pattern with TFRC, TCP(1/8), TCP(1/2).
func DefaultFig18() SmoothnessConfig { return exp.DefaultFig18() }

// DefaultFig19 compares IIAD and SQRT on the mild pattern.
func DefaultFig19() SmoothnessConfig { return exp.DefaultFig19() }

// RenderSmoothness formats the Figure 17/18/19 traces and summary.
func RenderSmoothness(title string, cfg SmoothnessConfig, res []SmoothnessResult) string {
	return exp.RenderSmoothness(title, cfg, res)
}

// Fig20Point is one row of the Appendix A model comparison (Figure 20).
type Fig20Point = exp.Fig20Point

// Fig20 tabulates the three throughput models.
func Fig20(ps []float64) []Fig20Point { return exp.Fig20(ps) }
