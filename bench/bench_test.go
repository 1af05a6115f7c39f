package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"slowcc/internal/obs"
)

// contract is BENCHMARK.json as the gate reads it.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(blob, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func sameDefs(t *testing.T, kind string, got []contractMetric, want []metricDef, bounded bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d %s metrics, defs.go %d", len(got), kind, len(want))
	}
	for i, d := range want {
		better := "higher"
		if d.lowerBetter {
			better = "lower"
		}
		g := got[i]
		if g.Name != d.name || g.Unit != d.unit || g.Better != better {
			t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, defs.go %s/%s/%s",
				kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, better)
		}
		if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
			t.Errorf("%s %s: bound in BENCHMARK.json does not match defs.go's %v", kind, d.name, d.bound)
		}
	}
}

// TestContractMatchesProgram holds BENCHMARK.json and the program to one
// list of workloads, metrics, units, directions and bounds.
func TestContractMatchesProgram(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)",
				i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
	}
	sameDefs(t, "end_to_end", c.EndToEnd, endToEnd, true)
	sameDefs(t, "per_layer", c.PerLayer, perLayer, false)
	if float64(c.RunSeconds) != sizes["full"].seconds {
		t.Errorf("run_seconds %d, the full size measures for %v", c.RunSeconds, sizes["full"].seconds)
	}
}

// TestQuickRun is the smoke: every workload and the traced run once at
// the quick size, on a seed the oracle has nothing recorded for.
func TestQuickRun(t *testing.T) {
	c := readContract(t)
	ws, err := selectWorkloads("all")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res, code := run(ws, sizes["quick"], 3, true, true, false, dir)
	set := res.Sets[0]
	if code != 0 || !set.correct() || set.Attempted == 0 {
		t.Fatalf("exit code %d, %d of %d operations failed, problems %q", code, set.Failed, set.Attempted, set.Problems)
	}
	legal := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range ws {
		emitted := map[string][]metric{}
		for _, ms := range [][]metric{set.Workloads[w.name], set.Layers} {
			for _, m := range ms {
				emitted[m.Name] = append(emitted[m.Name], m)
			}
		}
		declared := append(append([]contractMetric(nil), c.EndToEnd...), c.PerLayer...)
		for _, d := range declared {
			ms := emitted[d.Name]
			if len(ms) != 1 {
				t.Errorf("%s: %s emitted %d times, want once", w.name, d.Name, len(ms))
				continue
			}
			m := ms[0]
			if math.IsNaN(m.Median) || math.IsInf(m.Median, 0) || m.Unit == "" || m.Unit != d.Unit || m.N < 1 {
				t.Errorf("%s: %s = %v %q (n %d), want a finite value in %q", w.name, d.Name, m.Median, m.Unit, m.N, d.Unit)
			}
			if !legal.MatchString(m.Name) {
				t.Errorf("metric name %q uses characters outside letters, digits, _ . -", m.Name)
			}
			delete(emitted, d.Name)
		}
		for name := range emitted {
			t.Errorf("%s: %s emitted but not in BENCHMARK.json", w.name, name)
		}
	}
	for _, d := range c.EndToEnd {
		for _, w := range ws {
			for _, m := range set.Workloads[w.name] {
				if m.Name == d.Name && m.Median <= 0 {
					t.Errorf("%s %s = %v: end-to-end metrics must never be 0", w.name, d.Name, m.Median)
				}
			}
		}
	}
	if n, err := obs.ReadTimelineFile(filepath.Join(dir, "trace.json")); err != nil || n == 0 {
		t.Errorf("trace.json: %d events, %v", n, err)
	}

	var last struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  *string  `json:"unit"`
		} `json:"metrics"`
	}
	one := []*workload{findWorkload("figures")}
	if err := json.Unmarshal([]byte(lastLine(set, one)), &last); err != nil {
		t.Fatal(err)
	}
	if last.Correct == nil || !*last.Correct || last.Attempted == nil || *last.Attempted < 1 || last.Failed == nil {
		t.Errorf("last line lacks correct/attempted/failed: %s", lastLine(set, one))
	}
	if want := len(c.EndToEnd) + len(c.PerLayer); len(last.Metrics) != want {
		t.Errorf("last line of a one-workload run carries %d metrics, want %d", len(last.Metrics), want)
	}
	for name, v := range last.Metrics {
		if v.Value == nil || v.Unit == nil {
			t.Errorf("last line: %s lacks value or unit", name)
		}
	}
}

func TestOracleCatchesAChangedOutput(t *testing.T) {
	o := newOracle(3, "quick")
	if err := o.observe("matrix_cold", passOut{check: "aa"}); err != nil {
		t.Fatal(err)
	}
	if err := o.observe("matrix_warm", passOut{check: "aa"}); err != nil {
		t.Fatalf("cold and warm share one TSV: %v", err)
	}
	if err := o.observe("matrix_warm", passOut{check: "bb"}); err == nil {
		t.Error("a warm TSV unlike the cold one passed the oracle")
	}
	pinned := newOracle(1, "full")
	if err := pinned.observe("figures", passOut{check: "not-the-recorded-hash"}); err == nil {
		t.Error("seed 1 at the full size accepted an unrecorded figures hash")
	}
}

func TestCompareSetsFlagsABreach(t *testing.T) {
	ws := []*workload{findWorkload("engine_mixed")}
	set := func(wall float64, events float64) *report {
		r := newReport(nil)
		for _, d := range endToEnd {
			r.emitFor("engine_mixed", d.name, 1)
		}
		r.Workloads["engine_mixed"][1] = newMetric("wall_s", []float64{wall})
		r.emit("sim.events", events)
		return r
	}
	if !compareSets(set(1, 100), set(1.05, 100), ws) {
		t.Error("5% slower is inside wall_s's bound")
	}
	if compareSets(set(1, 100), set(1.5, 100), ws) {
		t.Error("50% slower passed")
	}
	if compareSets(set(1, 100), set(1, 101), ws) {
		t.Error("an exact count that moved passed")
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	// Expected quartiles are Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{4}, 4, 4, 4},
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{1, 2, 3}, 2, 1, 3},
		{[]float64{3, 1, 2, 10, 7, 8, 4}, 4, 2, 8},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{5.5, 1.25, 9, 3, 3, 8, 2.5, 7, 6.125}, 5.5, 2.75, 7.5},
	} {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); m != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: median %v quartiles %v %v, want %v %v %v", c.xs, m, q1, q3, c.med, c.q1, c.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 294)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // 294 .. 1, unsorted on purpose
	}
	if v, ok := percentile(xs, 0.95); !ok || v != 280 {
		t.Errorf("p95 of 1..294 = %v, %v; want 280 with 14 samples beyond", v, ok)
	}
	if _, ok := percentile(xs, 0.99); ok {
		t.Error("p99 of 294 samples has 2 beyond it and must not be reported")
	}
	if _, ok := percentile(xs[:100], 0.90); !ok {
		t.Error("p90 of 100 samples has exactly ten beyond it and may be reported")
	}
	if _, ok := percentile(xs[:7], 0.5); ok {
		t.Error("seven passes support no percentile")
	}
}
