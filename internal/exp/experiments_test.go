package exp

import (
	"os"
	"strings"
	"testing"

	"slowcc/internal/obs"
	"slowcc/internal/topology"
)

// toyCells is the whole driver of a toy experiment: a job list (two
// cells), a cell function that gets its scenario from the cell, and
// nothing copied from another driver. Each cell reports the seed its
// scenario's net was built on, and cell 1 panics, after traffic has
// flowed.
func toyCells(sw *Sweep, seed int64) []int64 {
	return supervisedMap(sw, 2, func(c *Cell) int64 {
		eng, d := c.newScenario(seed, topology.Config{Rate: 1e6})
		ran := d.Cfg.Seed
		f := TCPAlgo(0.5).Make(eng, d, 1)
		eng.At(0, f.Sender.Start)
		eng.RunUntil(2)
		if c.Index() == 1 {
			panic("toy: cell 1 fails")
		}
		return ran
	})
}

// TestNewExperimentIsOneRow is ROADMAP item 2's litmus for experiments:
// one driver (toyCells) plus one row literal is listed, runnable and
// supervised with telemetry, its failing cell degraded — everything
// the CLI and the facade do with an experiment they do by ranging over
// Experiments().
func TestNewExperimentIsOneRow(t *testing.T) {
	const base = 7
	row := Experiment{"toy", "two supervised cells", func(sw *Sweep, _ bool, seed int64, _ MatrixConfig) (string, any) {
		res := toyCells(sw, seed)
		return "toy\n", res
	}}
	saved := experiments
	experiments = append(experiments[:len(experiments):len(experiments)], row)
	t.Cleanup(func() { experiments = saved })

	// Serial: the roster is package state.
	sink := &recordingSink{}
	sw := newSweep(t)
	sw.Progress = sink

	// slowccsim -list prints Experiments(); -exp NAME and -exp all select
	// from it, names compared case-insensitively.
	var toy Experiment
	for _, e := range Experiments() {
		if strings.EqualFold("TOY", e.Name) {
			toy = e
		}
	}
	if toy.Desc != row.Desc {
		t.Fatalf("the row appended to the table is not in Experiments(): %+v", Experiments())
	}
	_, data := toy.Run(sw, false, base, MatrixConfig{})

	seeds := data.([]int64)
	if seeds[0] != base {
		t.Errorf("cell 0 ran on seed %d, want %d: a cell must run on the base seed", seeds[0], base)
	}
	if seeds[1] != 0 {
		t.Errorf("cell 1 reported seed %d, want the zero value of a degraded cell", seeds[1])
	}
	if errs := sw.Errors(); len(errs) != 1 || errs[0].Index != 1 || errs[0].Outcome != "panic" {
		t.Errorf("Errors = %v, want cell 1's panic, once", errs)
	}

	sink.mu.Lock()
	stats := sink.stats
	sink.mu.Unlock()
	if len(stats) != 1 {
		t.Fatalf("sink got %d CellStats, want one, for the cell that succeeded", len(stats))
	}
	if stats[0].Events == 0 {
		t.Error("CellStats.Events = 0: the cell's engine was not harvested")
	}
}

func TestRosterInvariants(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if e.Name == "" || e.Desc == "" || e.Run == nil {
			t.Errorf("row %+v: empty name or description, or nil Run", e)
		}
		if seen[strings.ToLower(e.Name)] {
			t.Errorf("row %q is listed twice (names are matched case-insensitively)", e.Name)
		}
		seen[strings.ToLower(e.Name)] = true
	}
	// The three rows run as TestRosterOracle runs them, so they are held
	// to their lines of the oracle without simulating anything twice.
	oracle := readOracle(t)
	for _, name := range []string{"fig11", "fig20", "fig17"} {
		for _, e := range Experiments() {
			if e.Name != name {
				continue
			}
			line, text := runOracleRow(t, sw, e)
			if text == "" {
				t.Errorf("%s: empty text", name)
			}
			checkOracle(t, oracle, line)
		}
		if !seen[name] {
			t.Errorf("%s is not on the roster", name)
		}
	}
}

// Every renderer must survive the result of a sweep that ran no cells
// (an explicitly empty algorithm list reaches them from the facade).
func TestRenderersAcceptEmptyResults(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	renderers := map[string]func(){
		"Fig3":          func() { RenderFig3(nil) },
		"Fig45":         func() { RenderFig45(nil) },
		"Fig6":          func() { RenderFig6(Fig6Config{}, nil) },
		"Outage":        func() { RenderOutage(OutageConfig{}, nil) },
		"Fairness":      func() { RenderFairness("", FairnessConfig{}, nil) },
		"Convergence":   func() { RenderConvergence("", nil, 0) },
		"Fig11":         func() { RenderFig11(0.1, 0.1, nil) },
		"Fig13":         func() { RenderFig13(Fig13Config{}, nil) },
		"Oscillation":   func() { RenderOscillation("", OscillationConfig{}, nil) },
		"Smoothness":    func() { RenderSmoothness("", nil) },
		"Fig20":         func() { RenderFig20(nil) },
		"StaticCompat":  func() { RenderStaticCompat(nil) },
		"RTTFairness":   func() { RenderRTTFairness(RTTFairnessConfig{}, nil) },
		"QueueDynamics": func() { RenderQueueDynamics(QueueDynamicsConfig{}, nil) },
		"Matrix":        func() { RenderMatrix(MatrixConfig{}, nil) },
		"MatrixTSV":     func() { RenderMatrixTSV(nil) },
		"MatrixHeatmap": func() { RenderMatrixHeatmap(nil, "ratio") },
		"HeatmapSVG":    func() { RenderMatrixHeatmapSVG(nil, "ratio") },
	}
	for name, render := range renderers {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if v := recover(); v != nil {
					t.Errorf("Render%s panicked on an empty result: %v", name, v)
				}
			}()
			render()
		})
	}
	// The two facade calls that used to reach the panic.
	RenderSmoothness("", sw.RunSmoothness(SmoothnessConfig{Pattern: MildBurstyPattern}))
	cfg := Fig6Config{Backgrounds: []AlgoSpec{}}
	RenderFig6(cfg, sw.Fig6(cfg))
}

// A driver runs its scenarios as the cells of one supervised sweep, so a
// deadline, a store and a progress sink reach every one of them. The
// sink counts sweeps by their cell 0 and cells by their queued events.
// ablation-tear runs two sweeps: its stabilization cell and its fairness
// cells have different result types, which one sweep cannot carry until
// a row's cells are planned apart from its reduce.
func TestDriverRunsOneSweep(t *testing.T) {
	t.Parallel()
	conv := ConvergenceConfig{SecondStart: 5, Horizon: 10, Seeds: []int64{1}}
	smooth := DefaultFig17()
	smooth.Duration = smoothnessWarmup + 5
	for _, tc := range []struct {
		name          string
		sweeps, cells int
		run           func(sw *Sweep)
	}{
		{"Fig10", 1, 4, func(sw *Sweep) { sw.Fig10(conv, 16) }},
		{"Fig12", 1, 5, func(sw *Sweep) { sw.Fig12(conv, 16) }},
		{"RunSmoothness", 1, 2, func(sw *Sweep) { sw.RunSmoothness(smooth) }},
		{"RTTFairness", 1, 2, func(sw *Sweep) { sw.RTTFairness(RTTFairnessConfig{Warmup: 2, Measure: 5}) }},
		{"StaticCompat", 1, 21, func(sw *Sweep) { sw.StaticCompat(StaticCompatConfig{Warmup: 2, Measure: 5}) }},
		{"ablation-tear", 2, 5, func(sw *Sweep) { tearExperiment(sw, false, 1, MatrixConfig{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sink := &recordingSink{}
			sw := newSweep(t)
			sw.Progress = sink
			tc.run(sw)
			sweeps, cells := 0, 0
			for _, ev := range sink.events {
				if ev.Kind == obs.SweepQueued {
					cells++
					if ev.Cell == 0 {
						sweeps++
					}
				}
			}
			if sweeps != tc.sweeps || cells != tc.cells {
				t.Errorf("%d sweep(s) of %d cell(s) in all, want %d of %d", sweeps, cells, tc.sweeps, tc.cells)
			}
		})
	}
}

// Every ablation the substrate table names (its fifth column) is a
// roster row; topology's TestSubstrateTable checks the rest of each row.
func TestSubstrateAblationsAreRosterRows(t *testing.T) {
	b, err := os.ReadFile("../topology/testdata/substrate.tsv")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, e := range Experiments() {
		rows[e.Name] = true
	}
	for _, line := range strings.Split(string(b), "\n") {
		if c := strings.Split(line, "\t"); len(c) == 5 && strings.HasPrefix(c[4], "ablation-") && !rows[c[4]] {
			t.Errorf("substrate.tsv: %s names %s, which is no roster row", c[0], c[4])
		}
	}
}
