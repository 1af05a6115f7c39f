// Command bench is the repository's benchmark: four closed-loop
// workloads, six end-to-end metrics per workload (plus failed/attempted
// counts), and a traced run that budgets every layer. BENCHMARK.json at
// the repository root names it; README.md here says how to read it.
//
//	go run ./bench                       # all four workloads, then the traced run
//	go run ./bench -repeat               # two sets back to back, compared against the bounds
//	go run ./bench -workload figures -seed 7 -seconds 18 -trace 0   # what the gate runs
//
// The last line of standard output is always one JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one reported number: the median of its samples, their
// quartiles and how many there were (one for a count or a single span).
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			m[d.name] = d.unit
		}
	}
	return m
}()

func newMetric(name string, xs []float64) metric {
	unit, ok := units[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in defs.go")
	}
	q1, q3 := quartiles(xs)
	return metric{Name: name, Unit: unit, Median: median(xs), Q1: q1, Q3: q3, N: len(xs)}
}

// report gathers one set's metrics and its correctness tally.
type report struct {
	Layers    []metric            `json:"layers,omitempty"`
	Workloads map[string][]metric `json:"workloads"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Problems  []string            `json:"problems,omitempty"`
	// CalibMS are the calibration spins timed before each timed pass.
	CalibMS []float64 `json:"calib_ms,omitempty"`

	oracle *oracle
}

func newReport(o *oracle) *report { return &report{Workloads: map[string][]metric{}, oracle: o} }

func (r *report) emit(name string, xs ...float64) { r.Layers = append(r.Layers, newMetric(name, xs)) }
func (r *report) emitFor(workload, name string, xs ...float64) {
	r.Workloads[workload] = append(r.Workloads[workload], newMetric(name, xs))
}
func (r *report) fail(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}
func (r *report) count(ops, failed int) { r.Attempted += ops; r.Failed += failed }

// check holds a pass's outputs against the oracle; a mismatch fails
// every operation of the pass, since none can be told right from wrong.
func (r *report) check(name string, out passOut, ops int) {
	if err := r.oracle.observe(name, out); err != nil {
		r.fail("%v", err)
		r.Failed += ops - out.failed
	}
}

func (r *report) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

// facts are the seed-deterministic counts of one pass of a workload,
// found by the traced warm-up pass of its set-up.
type facts struct {
	ops    int
	events uint64
}

// setUp does what a workload needs before its first timed pass: the
// pinned self-test, seeding (matrix_warm's store), and one warm-up pass,
// traced so that it also counts the pass's operations and events.
func setUp(e *env, w *workload, r *report) (facts, error) {
	if err := checkPinned(); err != nil {
		return facts{}, err
	}
	if w.prepare != nil {
		if err := w.prepare(e); err != nil {
			return facts{}, err
		}
	}
	out, err := w.pass(e, newTracer())
	if out.dir != "" {
		os.RemoveAll(out.dir)
	}
	if err != nil {
		return facts{}, err
	}
	r.count(out.ops, out.failed)
	r.check(w.name, out, out.ops)
	return facts{ops: out.ops, events: out.events}, nil
}

// timedSet runs the end-to-end measurement of ws: each is set up
// size.setups times, then passes go round-robin (A B C D A B C D ...)
// with every sink off until each workload has at least size.minPasses
// passes and size.seconds of timed wall.
func timedSet(e *env, ws []*workload, r *report) error {
	fact := map[string]facts{}
	for _, w := range ws {
		var setupS []float64
		for i := 0; i < e.size.setups; i++ {
			t0 := time.Now()
			f, err := setUp(e, w, r)
			if err != nil {
				return err
			}
			setupS = append(setupS, time.Since(t0).Seconds())
			if i > 0 && f != fact[w.name] {
				r.fail("%s: set-up %d counted %+v, set-up 0 counted %+v", w.name, i, f, fact[w.name])
			}
			fact[w.name] = f
		}
		r.emitFor(w.name, "setup_s", setupS...)
	}

	type samples struct{ wall, cpu, events, cells, alloc []float64 }
	got := map[string]*samples{}
	for _, w := range ws {
		got[w.name] = &samples{}
	}
	for running := true; running; {
		running = false
		for _, w := range ws {
			s, f := got[w.name], fact[w.name]
			var total float64
			for _, x := range s.wall {
				total += x
			}
			if len(s.wall) >= e.size.minPasses && total >= e.size.seconds {
				continue
			}
			running = true
			runtime.GC()
			r.CalibMS = append(r.CalibMS, ms(calibrate()))
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			cpu0, t0 := cpuSeconds(), time.Now()
			out, err := w.pass(e, nil)
			wall := time.Since(t0).Seconds()
			cpu := cpuSeconds() - cpu0
			runtime.ReadMemStats(&m1)
			if out.dir != "" {
				os.RemoveAll(out.dir)
			}
			if err != nil {
				return err
			}
			r.count(f.ops, out.failed)
			r.check(w.name, out, f.ops)
			s.wall = append(s.wall, wall)
			s.cpu = append(s.cpu, cpu)
			s.events = append(s.events, float64(f.events)/wall)
			s.cells = append(s.cells, float64(f.ops)/wall)
			s.alloc = append(s.alloc, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		}
	}
	for _, w := range ws {
		s := got[w.name]
		r.emitFor(w.name, "wall_s", s.wall...)
		r.emitFor(w.name, "cpu_s", s.cpu...)
		r.emitFor(w.name, "events_per_s", s.events...)
		r.emitFor(w.name, "cells_per_s", s.cells...)
		r.emitFor(w.name, "alloc_mb", s.alloc...)
	}
	return nil
}

// wallMedians extracts each workload's untraced median pass wall.
func wallMedians(r *report) map[string]float64 {
	out := map[string]float64{}
	for w, ms := range r.Workloads {
		for _, m := range ms {
			if m.Name == "wall_s" {
				out[w] = m.Median
			}
		}
	}
	return out
}

// validate holds a set to the contract: per workload, exactly the
// declared end-to-end metrics (timed) and, with the shared layer
// metrics, exactly the declared per-layer ones (traced); every value
// finite.
func (r *report) validate(ws []*workload, timed, traced bool) {
	var declared []metricDef
	if timed {
		declared = append(declared, endToEnd...)
	}
	if traced {
		declared = append(declared, perLayer...)
	}
	for _, w := range ws {
		seen := map[string]int{}
		for _, m := range append(append([]metric(nil), r.Workloads[w.name]...), r.Layers...) {
			seen[m.Name]++
			if math.IsNaN(m.Median) || math.IsInf(m.Median, 0) {
				r.fail("%s: %s is %v", w.name, m.Name, m.Median)
			}
		}
		for _, d := range declared {
			if seen[d.name] != 1 {
				r.fail("%s: %s emitted %d times", w.name, d.name, seen[d.name])
			}
		}
		if len(seen) != len(declared) {
			r.fail("%s: %d metrics emitted, %d declared", w.name, len(seen), len(declared))
		}
	}
}

// result is the JSON file a run writes and the source of the last line.
type result struct {
	Schema  string    `json:"schema"`
	Machine machine   `json:"machine"`
	Noisy   bool      `json:"noisy"`
	Sets    []*report `json:"sets"`
}

// lastLine is the object the gate parses.
func lastLine(r *report, ws []*workload) string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, map[string]val{}}
	for _, m := range r.Layers {
		out.Metrics[m.Name] = val{m.Median, m.Unit}
	}
	for _, w := range ws {
		for _, m := range r.Workloads[w.name] {
			name := m.Name
			if len(ws) > 1 {
				name = w.name + "." + name
			}
			out.Metrics[name] = val{m.Median, m.Unit}
		}
	}
	blob, err := json.Marshal(out)
	if err != nil { // a NaN; validate has already reported it
		return fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, r.Attempted, r.Failed)
	}
	return string(blob)
}

func printMetric(m metric) {
	if m.N == 1 {
		fmt.Printf("  %-34s %14.6g %-6s\n", m.Name, m.Median, m.Unit)
		return
	}
	fmt.Printf("  %-34s %14.6g %-6s q1 %.6g  q3 %.6g  n %d\n", m.Name, m.Median, m.Unit, m.Q1, m.Q3, m.N)
}

func printReport(r *report, ws []*workload, noisy bool) {
	note := ""
	if noisy {
		note = "  [noisy: timings unresolved]"
	}
	for _, w := range ws {
		fmt.Printf("%s%s\n", w.name, note)
		for _, m := range r.Workloads[w.name] {
			printMetric(m)
		}
	}
	if len(r.Layers) > 0 {
		fmt.Printf("per layer (traced run)%s\n", note)
		for _, m := range r.Layers {
			printMetric(m)
		}
	}
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("fail_ratio %g (%d failed / %d attempted)\n", ratio, r.Failed, r.Attempted)
	for _, p := range r.Problems {
		fmt.Printf("PROBLEM: %s\n", p)
	}
}

// compareSets is -repeat's verdict: per workload and end-to-end metric,
// both medians, how much worse the second is, and the bound; then every
// exact count of the traced run. It reports whether the sets agree.
func compareSets(a, b *report, ws []*workload) bool {
	ok := true
	find := func(ms []metric, name string) (metric, bool) {
		for _, m := range ms {
			if m.Name == name {
				return m, true
			}
		}
		return metric{}, false
	}
	fmt.Println("repeat: second set against the first")
	for _, w := range ws {
		for _, d := range endToEnd {
			ma, _ := find(a.Workloads[w.name], d.name)
			mb, _ := find(b.Workloads[w.name], d.name)
			worse := (mb.Median - ma.Median) / ma.Median
			if !d.lowerBetter {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.bound {
				verdict, ok = "BREACH", false
			}
			fmt.Printf("  %-13s %-13s %12.6g %12.6g  worse by %+.2f%%  bound %.0f%%  %s\n",
				w.name, d.name, ma.Median, mb.Median, worse*100, d.bound*100, verdict)
		}
	}
	for _, d := range perLayer {
		ma, inA := find(a.Layers, d.name)
		mb, inB := find(b.Layers, d.name)
		if d.exact && inA && inB && ma.Median != mb.Median {
			fmt.Printf("  exact count %s differs: %v then %v  BREACH\n", d.name, ma.Median, mb.Median)
			ok = false
		}
	}
	return ok
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed    = flag.Int64("seed", 1, "seed every input derives from (2 is held out for later claims)")
		seconds = flag.Float64("seconds", 0, "timed wall seconds per workload (0: the size's own, 18 at full size); passes never number fewer than seven")
		traceOn = flag.String("trace", "both", "0: timed set only; 1: traced run only; both")
		quick   = flag.Bool("quick", false, "smoke-test size: tiny simulated durations, one pass")
		repeat  = flag.Bool("repeat", false, "run everything twice back to back and compare against the bounds")
		workdir = flag.String("workdir", filepath.Join(".bench_build", "bench"), "directory for stores, the trace and the result file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	ws, err := selectWorkloads(*name)
	timed, traced := *traceOn != "1", *traceOn != "0"
	if err == nil && *traceOn != "0" && *traceOn != "1" && *traceOn != "both" {
		err = fmt.Errorf("-trace %q: want 0, 1 or both", *traceOn)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	sz := sizes["full"]
	if *quick {
		sz = sizes["quick"]
	}
	if *seconds > 0 {
		sz.seconds = *seconds
	}
	res, code := run(ws, sz, *seed, timed, traced, *repeat, *workdir)
	fmt.Println(lastLine(res.Sets[len(res.Sets)-1], ws))
	os.Exit(code)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func selectWorkloads(name string) ([]*workload, error) {
	if name == "all" {
		var ws []*workload
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
		return ws, nil
	}
	if w := findWorkload(name); w != nil {
		return []*workload{w}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s, or all)", name, strings.Join(workloadNames(), ", "))
}

// run is main without the flags and the exit, so the smoke test drives
// the same path. The exit code is 0 only for a correct run (and, with
// repeat, two sets that agree).
func run(ws []*workload, sz size, seed int64, timed, traced, repeat bool, workdir string) (*result, int) {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	res := &result{Schema: "slowcc-bench/1"}
	fatal := func(err error) (*result, int) {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		r := newReport(nil)
		r.fail("%v", err)
		res.Sets = append(res.Sets, r)
		return res, 1
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return fatal(err)
	}
	scratch, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return fatal(err)
	}
	defer os.RemoveAll(scratch)
	e := &env{seed: seed, size: sz, workdir: scratch}
	res.Machine = readMachine(workdir, seed, sz.name)
	orc := newOracle(seed, sz.name)
	tr := newTracer()

	sets := 1
	if repeat {
		sets = 2
	}
	for i := 0; i < sets; i++ {
		r := newReport(orc)
		res.Sets = append(res.Sets, r)
		if timed {
			if err := timedSet(e, ws, r); err != nil {
				return fatal(err)
			}
		}
	}
	for _, r := range res.Sets {
		if !traced {
			continue
		}
		if err := tracedRun(e, tr, ws, wallMedians(r), r); err != nil {
			return fatal(err)
		}
	}
	var calib []float64
	for _, r := range res.Sets {
		calib = append(calib, r.CalibMS...)
		r.validate(ws, timed, traced)
		for _, m := range r.Layers {
			if m.Name == "bench.calib_spread" && m.Median > noisySpread {
				res.Noisy = true
			}
		}
	}

	if len(calib) > 1 && spread(calib) > noisySpread {
		res.Noisy = true
	}
	fmt.Printf("machine: %+v\n", res.Machine)
	if res.Noisy {
		fmt.Printf("NOISY: the calibration spin varied by more than %.0f%% across this run; treat every timing below as unresolved\n", noisySpread*100)
	}
	code := 0
	for i, r := range res.Sets {
		if sets > 1 {
			fmt.Printf("--- set %d ---\n", i+1)
		}
		if len(r.CalibMS) > 1 {
			fmt.Printf("calibration spin before each timed pass: median %.3f ms, spread %.3f, n %d\n",
				median(r.CalibMS), spread(r.CalibMS), len(r.CalibMS))
		}
		printReport(r, ws, res.Noisy)
		if !r.correct() {
			code = 1
		}
	}
	if repeat && code == 0 && !compareSets(res.Sets[0], res.Sets[1], ws) {
		code = 1
	}
	if traced {
		path := filepath.Join(workdir, "trace.json")
		if err := tr.tl.WriteFile(path); err != nil {
			return fatal(err)
		}
		fmt.Printf("trace written to %s (%d events; open in https://ui.perfetto.dev)\n", path, tr.tl.Len())
	}
	blob, err := json.MarshalIndent(res, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(workdir, "results.json"), append(blob, '\n'), 0o644)
	}
	if err != nil {
		return fatal(err)
	}
	fmt.Printf("results written to %s\n", filepath.Join(workdir, "results.json"))
	return res, code
}

// noisySpread is the calibration spread above which a run calls its own
// timings unresolved.
const noisySpread = 0.05
