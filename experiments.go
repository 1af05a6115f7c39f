package slowcc

import "slowcc/internal/exp"

// The paper's experiments, re-exported one-to-one from internal/exp.
// Each has a Config whose zero fields take the paper's parameters, a
// typed result, and a Render function producing the table the paper
// plots. The single-scenario configs (StabilizationConfig,
// FairnessConfig, ConvergenceConfig, SmoothnessConfig) have no default
// for what is under test — Algo, A and B, Algos and Pattern — and must
// be given it; DefaultFig7-9 and DefaultFig17-19 are the paper's choices.

// Experiments returns the evaluation roster — Figures 3-20, the
// ablations and the extensions — in the order slowccsim -list prints it.
// Each row runs its experiment at the paper's scale (full) or a reduced
// one and returns the rendered tables with the typed result; matrix
// overrides the matrix row's configuration and no other row reads it.
func Experiments() []exp.Experiment { return exp.Experiments() }

// Stabilization experiments (Section 4.1, Figures 3-5).
type (
	// StabilizationConfig is the CBR-restart scenario behind Figures
	// 3-5.
	StabilizationConfig = exp.StabilizationConfig
	// StabilizationResult carries the steady loss rate, stabilization
	// time/cost, and the loss timeline.
	StabilizationResult = exp.StabilizationResult
	// Fig3Config selects the algorithms whose timelines Figure 3 shows.
	Fig3Config = exp.Fig3Config
	// Fig45Config sweeps the slowness parameter for Figures 4 and 5.
	Fig45Config = exp.Fig45Config
	// Fig45Point is one (family, gamma) stabilization measurement.
	Fig45Point = exp.Fig45Point
)

// RunStabilization runs the Figure 3/4/5 scenario for one algorithm.
func RunStabilization(cfg StabilizationConfig) StabilizationResult {
	return exp.RunStabilization(cfg)
}

// Fig3 runs the drop-rate timelines of Figure 3.
func Fig3(cfg Fig3Config) []StabilizationResult { return exp.Fig3(cfg) }

// DefaultFig3 returns the paper's Figure 3 algorithm set.
func DefaultFig3() Fig3Config { return exp.DefaultFig3() }

// Fig45 runs the Figure 4/5 gamma sweep.
func Fig45(cfg Fig45Config) []Fig45Point { return exp.Fig45(cfg) }

// RenderFig3 and friends format results as the paper's tables.
func RenderFig3(res []StabilizationResult) string { return exp.RenderFig3(res) }

// RenderFig45 formats the Figure 4/5 tables.
func RenderFig45(pts []Fig45Point) string { return exp.RenderFig45(pts) }

// Flash crowd (Section 4.1.2, Figure 6).
type (
	// Fig6Config is the flash-crowd scenario.
	Fig6Config = exp.Fig6Config
	// Fig6Result is its outcome for one background type.
	Fig6Result = exp.Fig6Result
)

// Fig6 runs the flash-crowd scenario per background type.
func Fig6(cfg Fig6Config) []Fig6Result { return exp.Fig6(cfg) }

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
func Fairness(cfg FairnessConfig) []FairnessPoint { return exp.Fairness(cfg) }

// DefaultFig7 is TCP vs TFRC(6); DefaultFig8 TCP vs TCP(1/8);
// DefaultFig9 TCP vs SQRT(1/2).
func DefaultFig7() FairnessConfig { return exp.DefaultFig7() }

// DefaultFig8 returns the TCP vs TCP(1/8) configuration.
func DefaultFig8() FairnessConfig { return exp.DefaultFig8() }

// DefaultFig9 returns the TCP vs SQRT(1/2) configuration.
func DefaultFig9() FairnessConfig { return exp.DefaultFig9() }

// RenderFairness formats a Figure 7/8/9 table.
func RenderFairness(title string, cfg FairnessConfig, pts []FairnessPoint) string {
	return exp.RenderFairness(title, cfg, pts)
}

// Transient fairness (Section 4.2.2, Figures 10-12).
type (
	// ConvergenceConfig is the two-flow delta-fair convergence scenario.
	ConvergenceConfig = exp.ConvergenceConfig
	// ConvergenceResult is its averaged outcome.
	ConvergenceResult = exp.ConvergenceResult
	// Fig11Point is one cell of the analytic Figure 11 curve.
	Fig11Point = exp.Fig11Point
)

// RunConvergence measures one algorithm's delta-fair convergence time.
func RunConvergence(cfg ConvergenceConfig) ConvergenceResult { return exp.RunConvergence(cfg) }

// Fig10 sweeps TCP(b); Fig12 sweeps TFRC(k); Fig11 is the analytic
// model.
func Fig10(cfg ConvergenceConfig, maxGamma int) []ConvergenceResult {
	return exp.Fig10(cfg, maxGamma)
}

// Fig11 evaluates the analytic expected-ACK model.
func Fig11(p, delta float64, maxGamma int) []Fig11Point { return exp.Fig11(p, delta, maxGamma) }

// Fig12 sweeps TFRC(k) convergence.
func Fig12(cfg ConvergenceConfig, maxK int) []ConvergenceResult { return exp.Fig12(cfg, maxK) }

// RenderConvergence formats Figure 10/12 tables; RenderFig11 the model.
func RenderConvergence(title string, res []ConvergenceResult, horizon Time) string {
	return exp.RenderConvergence(title, res, horizon)
}

// RenderFig11 formats the analytic curve.
func RenderFig11(p, delta float64, pts []Fig11Point) string { return exp.RenderFig11(p, delta, pts) }

// Utilization after a bandwidth increase (Section 4.2.3, Figure 13).
type (
	// Fig13Config is the f(k) scenario.
	Fig13Config = exp.Fig13Config
	// Fig13Point is f(k) for one (family, gamma).
	Fig13Point = exp.Fig13Point
)

// Fig13 measures f(k) across algorithm families.
func Fig13(cfg Fig13Config) []Fig13Point { return exp.Fig13(cfg) }

// RenderFig13 formats the f(k) table.
func RenderFig13(cfg Fig13Config, pts []Fig13Point) string { return exp.RenderFig13(cfg, pts) }

// Utilization under oscillation (Section 4.2.4, Figures 14-16).
type (
	// OscillationConfig is the square-wave utilization scenario.
	OscillationConfig = exp.OscillationConfig
	// OscillationPoint is one (algorithm, period) outcome.
	OscillationPoint = exp.OscillationPoint
)

// Oscillation runs the utilization sweep.
func Oscillation(cfg OscillationConfig) []OscillationPoint { return exp.Oscillation(cfg) }

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
func RunSmoothness(cfg SmoothnessConfig) []SmoothnessResult { return exp.RunSmoothness(cfg) }

// MildBurstyPattern is the Figure 17/19 loss process; SevereBursty the
// Figure 18 one.
func MildBurstyPattern() DropPattern { return exp.MildBurstyPattern() }

// SevereBurstyPattern returns the Figure 18 loss process.
func SevereBurstyPattern() DropPattern { return exp.SevereBurstyPattern() }

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

// Static TCP-compatibility audit (extension; validates the premise of
// Section 2 / Figure 1).
type (
	// StaticCompatConfig audits throughput under fixed scripted loss.
	StaticCompatConfig = exp.StaticCompatConfig
	// StaticCompatPoint is one (algorithm, loss rate) outcome.
	StaticCompatPoint = exp.StaticCompatPoint
)

// StaticCompat runs the audit.
func StaticCompat(cfg StaticCompatConfig) []StaticCompatPoint { return exp.StaticCompat(cfg) }

// RenderStaticCompat formats the audit table.
func RenderStaticCompat(cfg StaticCompatConfig, pts []StaticCompatPoint) string {
	return exp.RenderStaticCompat(cfg, pts)
}

// RTT-fairness extension experiment.
type (
	// RTTFairnessConfig pits flows with unequal RTTs against each other.
	RTTFairnessConfig = exp.RTTFairnessConfig
	// RTTFairnessResult is the per-algorithm outcome.
	RTTFairnessResult = exp.RTTFairnessResult
)

// RTTFairness runs the unequal-RTT scenario for TCP and TFRC.
func RTTFairness(cfg RTTFairnessConfig) []RTTFairnessResult { return exp.RTTFairness(cfg) }

// RenderRTTFairness formats the extension table.
func RenderRTTFairness(cfg RTTFairnessConfig, res []RTTFairnessResult) string {
	return exp.RenderRTTFairness(cfg, res)
}

// Appendix A models (Figure 20).
type (
	// Fig20Point is one row of the model comparison.
	Fig20Point = exp.Fig20Point
)

// Fig20 tabulates the three throughput models.
func Fig20(ps []float64) []Fig20Point { return exp.Fig20(ps) }

// RenderFig20 formats the model table.
func RenderFig20(pts []Fig20Point) string { return exp.RenderFig20(pts) }

// Queue-dynamics extension experiment.
type (
	// QueueDynamicsConfig compares queue oscillation across traffic
	// types.
	QueueDynamicsConfig = exp.QueueDynamicsConfig
	// QueueDynamicsResult summarizes one traffic type's queue process.
	QueueDynamicsResult = exp.QueueDynamicsResult
)

// QueueDynamics runs the queue-oscillation comparison.
func QueueDynamics(cfg QueueDynamicsConfig) []QueueDynamicsResult { return exp.QueueDynamics(cfg) }

// RenderQueueDynamics formats the comparison table.
func RenderQueueDynamics(cfg QueueDynamicsConfig, res []QueueDynamicsResult) string {
	return exp.RenderQueueDynamics(cfg, res)
}
