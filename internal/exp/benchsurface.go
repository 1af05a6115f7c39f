package exp

import (
	"slices"

	"slowcc/internal/obs"
	"slowcc/internal/store"
)

// This file is the package-level surface bench/ drives its passes
// through: thin wrappers over one package-default Sweep, with the
// signatures bench/ calls. Roster rows, slowccsim and the tests go
// through a Sweep value and never through these; the file goes when
// bench/ does too.

// defaultSweep is the Sweep every wrapper below configures or runs.
var defaultSweep = &Sweep{}

// SetSweepStore sets the default Sweep's Store and Replay (replay only
// with a store) and returns the previous store.
func SetSweepStore(s *store.Store, replay bool) (prev *store.Store) {
	prev, defaultSweep.Store, defaultSweep.Replay = defaultSweep.Store, s, replay && s != nil
	return prev
}

// SetSweepProgress sets the default Sweep's Progress sink and returns
// the previous one.
func SetSweepProgress(sink obs.SweepSink) (prev obs.SweepSink) {
	prev, defaultSweep.Progress = defaultSweep.Progress, sink
	return prev
}

// SetSweepTimeline sets the default Sweep's Timeline and returns the
// previous one.
func SetSweepTimeline(tl *obs.Timeline) (prev *obs.Timeline) {
	prev, defaultSweep.Timeline = defaultSweep.Timeline, tl
	return prev
}

// SweepErrors returns the default Sweep's degraded cells since the last
// ResetSweepErrors, in sweep order, keeping them.
func SweepErrors() []*RunError {
	defaultSweep.mu.Lock()
	defer defaultSweep.mu.Unlock()
	return slices.Clone(defaultSweep.errs)
}

// ResetSweepErrors clears the default Sweep's degraded cells.
func ResetSweepErrors() { defaultSweep.Errors() }

// Supervise runs job once as a cell of the default Sweep (supervise).
func Supervise[T any](index int, job func(c *Cell) T) (T, *RunError) {
	return supervise(defaultSweep, index, job)
}

// The drivers bench/ runs: each is the Sweep method of its name, on the
// default Sweep.
func Matrix(cfg MatrixConfig) []MatrixCell                 { return defaultSweep.Matrix(cfg) }
func Fig3(cfg Fig3Config) []StabilizationResult            { return defaultSweep.Fig3(cfg) }
func Fig6(cfg Fig6Config) []Fig6Result                     { return defaultSweep.Fig6(cfg) }
func Fairness(cfg FairnessConfig) []FairnessPoint          { return defaultSweep.Fairness(cfg) }
func Fig13(cfg Fig13Config) []Fig13Point                   { return defaultSweep.Fig13(cfg) }
func Oscillation(cfg OscillationConfig) []OscillationPoint { return defaultSweep.Oscillation(cfg) }
func RunSmoothness(cfg SmoothnessConfig) []SmoothnessResult {
	return defaultSweep.RunSmoothness(cfg)
}
func Fig10(cfg ConvergenceConfig, maxGamma int) []ConvergenceResult {
	return defaultSweep.Fig10(cfg, maxGamma)
}
