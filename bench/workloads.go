package main

import (
	"fmt"
	"os"
	"strings"

	"slowcc/internal/exp"
	"slowcc/internal/invariant"
	"slowcc/internal/obs"
	"slowcc/internal/obs/export"
	"slowcc/internal/obs/journey"
	"slowcc/internal/sim"
	"slowcc/internal/store"
	"slowcc/internal/topology"
	"slowcc/internal/trace"
)

// size fixes how much simulated work one pass does. The full size is
// what the gate runs: the ISSUE's scenarios with simulated durations cut
// so that seven passes fit the driver's run length on two cores — the
// shapes (28 flows on 3 hops, the seven figure drivers, 294 matrix
// cells) are untouched, only the clocks are shorter. quick exists for
// the smoke test.
type size struct {
	name       string
	mixedSimS  float64 // engine_mixed: simulated seconds per pass
	figScale   float64 // figures: multiplier on the CLI's reduced (non -full) durations
	matWarmup  float64 // matrix_*: per-cell warm-up, simulated seconds
	matMeasure float64 // matrix_*: per-cell measurement window
	warmReps   int     // matrix_warm: open → replay → close rounds per pass
	minPasses  int     // timed passes per workload, whatever -seconds says
	seconds    float64 // timed wall seconds per workload when -seconds is not given
	setups     int     // times a workload is set up; setup_s is their median
	cutSimS    float64 // layers-on ratios: cut of engine_mixed
	ccSimS     float64 // cc.<algo>: one flow on a private dumbbell
	microOps   int     // operations per micro drive
}

var sizes = map[string]size{
	"full": {name: "full", mixedSimS: 40, figScale: 0.25, matWarmup: 1, matMeasure: 3,
		warmReps: 40, minPasses: 7, seconds: 18, setups: 3, cutSimS: 5, ccSimS: 60, microOps: 1 << 20},
	"quick": {name: "quick", mixedSimS: 1, figScale: 0.02, matWarmup: 0.1, matMeasure: 0.3,
		warmReps: 2, minPasses: 1, setups: 1, cutSimS: 0.3, ccSimS: 2, microOps: 1 << 14},
}

// env is what every pass needs: the seed all inputs derive from, the
// size, and a scratch directory private to this process.
type env struct {
	seed    int64
	size    size
	workdir string
	warmDir string // store a cold pass left behind, for matrix_warm
	// collector, when set, also receives every traced cell's CellStats,
	// to leave the registry a served sweep of that size leaves.
	collector *export.Collector
}

// passOut is what one pass reports. check is a hash of everything the
// pass computed and is filled on every pass; the counts below it cost a
// sink or a digest to collect, so only traced passes fill them and the
// timed passes reuse the (seed-deterministic) values set-up found.
type passOut struct {
	check  string
	failed int // operations that degraded, or missed the store on matrix_warm

	ops    int    // scenario runs or sweep cells attempted
	events uint64 // simulated events behind the pass's results
	digest uint64 // engine_mixed: StreamDigest of the run

	sink   *cellSink          // sweeps
	mixed  *mixedRun          // engine_mixed
	driver map[string]float64 // figures: seconds per driver
	dir    string             // matrix_cold: the store it wrote; the caller removes it
	store  [3]int64           // matrix_*: store hits, misses, corrupt
}

// workload is one entry of the benchmark: why it exists, what to do
// once before its passes, and one closed-loop pass. A pass with a nil
// tracer is the timed form — no sink, no digest, no span.
type workload struct {
	name, why string
	prepare   func(e *env) error
	pass      func(e *env, tr *tracer) (passOut, error)
}

var workloads = []workload{
	{name: "engine_mixed",
		why:  "28 mixed cc flows on a 3-hop 100 Mbps chain, one engine, one thread: sim, netem and cc do all the work; exp and store none",
		pass: mixedPass},
	{name: "figures",
		why:  "seven figure drivers back to back, no store: few long unequal cells, so exp dispatch order and the tail set the wall time",
		pass: figuresPass},
	{name: "matrix_cold",
		why:  "294-cell pairwise matrix written to a fresh store: many short cells, so per-cell set-up, supervision and Put+fsync show",
		pass: coldPass},
	{name: "matrix_warm",
		why:     "the same matrix replayed from a store a cold pass left: 294 hits, no engine runs; the read side of the store",
		prepare: seedWarmStore,
		pass:    warmPass},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// ---- engine_mixed ----

var mixedAlgos = []exp.AlgoSpec{
	exp.TCPAlgo(0.5),
	exp.TFRCAlgo(exp.TFRCOpts{K: 8, HistoryDiscounting: true}),
	exp.RAPAlgo(0.5),
	exp.SQRTAlgo(0.5),
	exp.IIADAlgo(0.5),
	exp.TEARAlgo(0),
	exp.TCPAlgo(1.0 / 8),
}

const mixedFlows = 28

type mixedRun struct {
	eng   *sim.Engine
	net   *topology.Net
	flows []exp.Flow
	dig   *sim.StreamDigest
	audit *invariant.Auditor
}

// buildMixed wires the engine_mixed scenario. layer turns one telemetry
// layer on the way its own CLI would ("" = everything off), which is how
// the layers-on ratios are measured on the same traffic.
func buildMixed(seed int64, layer string, tr *tracer) *mixedRun {
	r := &mixedRun{eng: sim.New(seed)}
	cfg := topology.NetConfig{Hops: make([]topology.Hop, 3), Seed: seed}
	for i := range cfg.Hops {
		cfg.Hops[i].Rate = 100e6
	}
	if layer == "invariant" {
		r.audit = invariant.New(r.eng)
		cfg.Audit = r.audit
	}
	tr.span("topology", "NewNet", func() { r.net = topology.NewNet(r.eng, cfg) })
	switch layer {
	case "journey":
		rec := journey.New()
		rec.MaxSpans = 1 << 16 // attribution stays exact; only retention is capped, to bound memory
		r.net.ObserveJourneys(rec)
	case "trace":
		rec := &trace.Recorder{Limit: 1 << 16}
		for i, l := range r.net.Fwd {
			l.AddTap(rec.HopTap(fmt.Sprintf("fwd%d", i)))
		}
	}
	tr.span("cc", "AlgoSpec.Make x28", func() {
		for i := 0; i < mixedFlows; i++ {
			f := mixedAlgos[i%len(mixedAlgos)].Make(r.eng, r.net, i+1)
			r.flows = append(r.flows, f)
			r.eng.At(float64(i)*0.010, f.Sender.Start)
		}
	})
	switch layer {
	case "digest":
		r.dig = &sim.StreamDigest{}
		r.eng.SetStreamDigest(r.dig)
	case "sampler":
		smp := obs.NewSampler(0.1)
		r.net.ObserveProbes(smp)
		for i, f := range r.flows {
			smp.Add(fmt.Sprintf("flow%d", i+1), f.Probes)
		}
		smp.Install(r.eng)
	}
	return r
}

// check hashes what the run left behind — engine counters, every
// bottleneck's stats, every flow's byte counts. Reading it is free, so
// the timed passes are checked without a digest on their hot path.
func (r *mixedRun) check() string {
	var sb strings.Builder
	fmt.Fprint(&sb, r.eng.Steps(), r.eng.Scheduled(), r.eng.Rearms(), r.eng.Stops())
	for i := range r.net.Fwd {
		fmt.Fprint(&sb, r.net.Fwd[i].Stats, r.net.Rev[i].Stats)
	}
	for _, f := range r.flows {
		fmt.Fprint(&sb, " ", f.SentBytes(), f.RecvBytes())
	}
	return obs.DigestBytes([]byte(sb.String()))
}

func mixedPass(e *env, tr *tracer) (passOut, error) {
	layer := ""
	if tr != nil {
		layer = "digest"
	}
	r := buildMixed(e.seed, layer, tr)
	tr.span("sim", "Engine.RunUntil", func() { r.eng.RunUntil(e.size.mixedSimS) })
	out := passOut{check: r.check(), ops: 1, events: r.eng.Steps(), mixed: r}
	if r.dig != nil {
		out.digest = r.dig.Sum()
		if r.dig.Events() != r.eng.Steps() {
			return out, fmt.Errorf("engine_mixed: digest covered %d of %d events", r.dig.Events(), r.eng.Steps())
		}
	}
	return out, nil
}

// ---- figures ----

// figureSet is what `slowccsim -exp figN` runs without -full, with every
// simulated duration multiplied by s.
var figureSet = []struct {
	name string
	run  func(seed int64, s float64) any
}{
	{"fig3", func(seed int64, s float64) any {
		cfg := exp.DefaultFig3()
		cfg.Scenario = exp.StabilizationConfig{OffAt: 50 * s, OnAt: 60 * s, End: 120 * s, Seed: seed}
		return exp.Fig3(cfg)
	}},
	{"fig6", func(seed int64, s float64) any {
		return exp.Fig6(exp.Fig6Config{Seed: seed, CrowdStart: 15 * s, CrowdDuration: 5 * s, End: 40 * s, Flows: 6})
	}},
	{"fig7", func(seed int64, s float64) any {
		cfg := exp.DefaultFig7()
		cfg.Seed = seed
		cfg.Periods = []sim.Time{0.2, 1, 4, 16}
		cfg.Warmup, cfg.Measure = 15*s, 60*s
		return exp.Fairness(cfg)
	}},
	{"fig10", func(seed int64, s float64) any {
		return exp.Fig10(exp.ConvergenceConfig{Seeds: []int64{seed}, SecondStart: 30 * s, Horizon: 200 * s}, 16)
	}},
	{"fig13", func(seed int64, s float64) any {
		return exp.Fig13(exp.Fig13Config{Seed: seed, StopAt: 60 * s, MaxGamma: 16})
	}},
	{"fig14", func(seed int64, s float64) any {
		return exp.Oscillation(exp.OscillationConfig{Seed: seed,
			Periods: []sim.Time{0.1, 0.4, 1.6, 6.4}, Warmup: 10 * s, Measure: 60 * s})
	}},
	{"fig17", func(seed int64, s float64) any {
		cfg := exp.DefaultFig17()
		cfg.Seed = seed
		cfg.Duration = 80 * s
		return exp.RunSmoothness(cfg)
	}},
}

// traceSweeps attaches a cellSink for the length of a traced pass and
// returns the function that restores the previous sink. The sweep
// settings are process-global: save, restore, never overlap two sweeps.
func traceSweeps(e *env, tr *tracer) (*cellSink, func()) {
	if tr == nil {
		return nil, func() {}
	}
	sink := &cellSink{tr: tr}
	if e.collector != nil {
		sink.forward = e.collector.AddCellStats
	}
	prev := exp.SetSweepProgress(sink)
	return sink, func() { exp.SetSweepProgress(prev) }
}

// sweepOut fills the fields every sweep pass shares.
func sweepOut(check string, sink *cellSink) passOut {
	out := passOut{check: check, failed: len(exp.SweepErrors()), sink: sink}
	if sink != nil {
		out.ops, out.events = sink.cells(), sink.events
	}
	return out
}

func figuresPass(e *env, tr *tracer) (passOut, error) {
	exp.ResetSweepErrors()
	sink, restore := traceSweeps(e, tr)
	defer restore()
	var sb strings.Builder
	driver := map[string]float64{}
	for _, f := range figureSet {
		var res any
		d := tr.span("exp", f.name, func() { res = f.run(e.seed, e.size.figScale) })
		driver[f.name] = d.Seconds()
		fmt.Fprintf(&sb, "%s %+v\n", f.name, res)
	}
	out := sweepOut(obs.DigestBytes([]byte(sb.String())), sink)
	out.driver = driver
	return out, nil
}

// ---- matrix_cold, matrix_warm ----

func matrixConfig(e *env) exp.MatrixConfig {
	return exp.MatrixConfig{Seed: e.seed, Warmup: e.size.matWarmup, Measure: e.size.matMeasure, Period: 1}
}

// matrixCells is the sweep size of the default cast: 7 x 7 ordered
// pairs x 3 conditions x 2 topologies.
const matrixCells = 294

// storedMatrix is one `slowccsim -exp matrix -store dir [-resume]` run:
// open, attach, sweep, render, close. With dir empty no store is
// attached (the no-store reference).
func storedMatrix(e *env, tr *tracer, dir string, replay bool) (tsv string, counts [3]int64, err error) {
	var st *store.Store
	if dir != "" {
		tr.span("store", "Open", func() { st, err = store.Open(dir) })
		if err != nil {
			return "", counts, err
		}
		prev := exp.SetSweepStore(st, replay)
		defer exp.SetSweepStore(prev, false)
	}
	var cells []exp.MatrixCell
	tr.span("exp", "Matrix", func() { cells = exp.Matrix(matrixConfig(e)) })
	tr.span("exp", "RenderMatrixTSV", func() { tsv = exp.RenderMatrixTSV(cells) })
	if st != nil {
		counts = [3]int64{st.Hits(), st.Misses(), st.Corrupt()}
		tr.span("store", "Close", func() { err = st.Close() })
	}
	return tsv, counts, err
}

func coldPass(e *env, tr *tracer) (passOut, error) {
	dir, err := os.MkdirTemp(e.workdir, "cold-")
	if err != nil {
		return passOut{}, err
	}
	exp.ResetSweepErrors()
	sink, restore := traceSweeps(e, tr)
	defer restore()
	tsv, counts, err := storedMatrix(e, tr, dir, false)
	out := sweepOut(obs.DigestBytes([]byte(tsv)), sink)
	out.dir, out.store = dir, counts
	return out, err
}

func seedWarmStore(e *env) error {
	if e.warmDir != "" {
		os.RemoveAll(e.warmDir)
	}
	out, err := coldPass(e, nil)
	e.warmDir = out.dir
	if err == nil && out.failed > 0 {
		err = fmt.Errorf("matrix_warm: seeding the store degraded %d cells", out.failed)
	}
	return err
}

func warmPass(e *env, tr *tracer) (passOut, error) {
	exp.ResetSweepErrors()
	sink, restore := traceSweeps(e, tr)
	defer restore()
	var check string
	var total [3]int64
	for i := 0; i < e.size.warmReps; i++ {
		tsv, counts, err := storedMatrix(e, tr, e.warmDir, true)
		if err != nil {
			return passOut{}, err
		}
		sum := obs.DigestBytes([]byte(tsv))
		if i > 0 && sum != check {
			return passOut{}, fmt.Errorf("matrix_warm: round %d rendered a different TSV", i)
		}
		check = sum
		for j := range counts {
			total[j] += counts[j]
		}
	}
	out := sweepOut(check, sink)
	// A miss means the cell was recomputed: the pass still gives the right
	// TSV, but it did not measure a replay.
	out.failed += int(total[1])
	out.store = total
	return out, nil
}
