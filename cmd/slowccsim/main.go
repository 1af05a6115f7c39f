// Command slowccsim reproduces the evaluation of "Dynamic Behavior of
// Slowly-Responsive Congestion Control Algorithms" (SIGCOMM 2001):
// every figure has a named experiment that runs the packet-level
// simulation and prints the corresponding table or series.
//
// Usage:
//
//	slowccsim -list
//	slowccsim -exp fig5            # quick (scaled-down) parameters
//	slowccsim -exp fig5 -full     # the paper's full parameters
//	slowccsim -exp all -full      # everything (minutes of CPU)
//	slowccsim -exp fig5 -manifest run.json   # record a run manifest
//	slowccsim -exp outage -full   # flash crowd onto a recovering link
//	slowccsim -exp fig6 -fault 'down:20+2' -max-events 50000000
//
// -fault injects deterministic faults (outages, flapping, corruption,
// duplication, reordering — see internal/faults) at every scenario's
// bottleneck; -max-events and -deadline bound runaway cells, and a
// sweep cell that panics or times out is reported as degraded on
// stderr (and counted in the manifest) instead of killing the run.
//
// -timeline records sweep telemetry as Chrome trace-event JSON: every
// supervised cell contributes a queued span, one running (or retry)
// span on the lane of the worker goroutine that executed it, and a
// degraded instant if it exhausted its attempts. Load the file in
// Perfetto to see how a matrix run scheduled across workers:
//
//	slowccsim -exp matrix -timeline sweep.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"slowcc/internal/exp"
	"slowcc/internal/faults"
	"slowcc/internal/obs"
	"slowcc/internal/obs/export"
	"slowcc/internal/sim"
	"slowcc/internal/store"
)

// exitInterrupted is the exit code for a run stopped gracefully by
// SIGINT/SIGTERM with a result store attached: completed cells are
// checkpointed, and a second invocation with -store DIR -resume picks
// up where this one left off. Distinct from 1 (failure) and 2 (usage)
// so scripts can tell "rerun me" from "give up".
const exitInterrupted = 3

type experiment struct {
	name string
	desc string
	run  func(full bool, seed int64) (text string, data any)
}

func experiments() []experiment {
	return []experiment{
		{"fig3", "drop-rate timeline when a CBR source restarts", runFig3},
		{"fig45", "stabilization time (Fig 4) and cost (Fig 5) vs gamma", runFig45},
		{"fig6", "flash crowd vs TFRC(256) with/without self-clocking", runFig6},
		{"fig7", "long-term fairness: TCP vs TFRC(6) under oscillation", runFig7},
		{"fig8", "long-term fairness: TCP vs TCP(1/8)", runFig8},
		{"fig9", "long-term fairness: TCP vs SQRT(1/2)", runFig9},
		{"fig10", "0.1-fair convergence time for TCP(b)", runFig10},
		{"fig11", "analytic expected ACKs to 0.1-fairness", runFig11},
		{"fig12", "0.1-fair convergence time for TFRC(k)", runFig12},
		{"fig13", "f(20)/f(200) utilization after bandwidth doubling", runFig13},
		{"fig14", "utilization and drop rate under 3:1 oscillation (Figs 14+15)", runFig14},
		{"fig16", "utilization under 10:1 oscillation", runFig16},
		{"fig17", "smoothness on the mild bursty pattern: TFRC vs TCP(1/8)", runFig17},
		{"fig18", "smoothness on the severe pattern (TFRC's worst case)", runFig18},
		{"fig19", "smoothness: IIAD vs SQRT on the mild pattern", runFig19},
		{"fig20", "Appendix A throughput models", runFig20},
		{"ablation-droptail", "Fig 4/5 scenario with tail-drop instead of RED", runAblationDropTail},
		{"ablation-ecn", "long-term fairness with an ECN-marking bottleneck", runAblationECN},
		{"ablation-tear", "TEAR in the stabilization and oscillation scenarios", runAblationTEAR},
		{"outage", "robustness extension: flash crowd onto a recovering bottleneck", runOutage},
		{"matrix", "N x N cc pairwise interaction matrix across topologies and conditions", runMatrix},
		{"static-compat", "static TCP-compatibility audit under fixed loss", runStaticCompat},
		{"rtt-fairness", "extension: unequal-RTT flows sharing the bottleneck", runRTTFairness},
		{"queue-dynamics", "extension: queue oscillation by traffic type", runQueueDynamics},
	}
}

func main() {
	var (
		name       = flag.String("exp", "", "experiment to run (see -list), or 'all'")
		list       = flag.Bool("list", false, "list experiments")
		full       = flag.Bool("full", false, "use the paper's full durations and sweeps")
		seed       = flag.Int64("seed", 1, "simulation seed")
		asJSON     = flag.Bool("json", false, "emit typed results as JSON instead of tables")
		manifest   = flag.String("manifest", "", "write a deterministic run-manifest JSON to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		maxEvents  = flag.Int64("max-events", 0, "halt any single scenario after this many events (0 = unbounded)")
		deadline   = flag.Duration("deadline", 0, "per-sweep-cell wall-clock deadline; a cell over it is degraded, not fatal (0 = none)")
		faultSpec  = flag.String("fault", "", "fault spec injected at every scenario's bottleneck, e.g. 'down:25+5;corrupt:0.001' (see internal/faults)")
		timeline   = flag.String("timeline", "", "write sweep telemetry (per-cell queued/running/retry/degraded spans, one lane per worker) as trace-event JSON to this path")
		serve      = flag.String("serve", "", "serve live telemetry on this address (e.g. 127.0.0.1:9155): /metrics, /healthz, /progress SSE, /debug/pprof; blocks after the run until interrupted")
		serveOnce  = flag.Bool("serve-once", false, "with -serve: exit as soon as the run finishes instead of blocking for scrapes (CI smoke)")
		slogLevel  = flag.String("slog", "", "emit structured sweep logs to stderr at this level (debug, info, warn, error)")
		storeDir   = flag.String("store", "", "durable result store directory: completed sweep cells are journaled here (crash-safe), and SIGINT/SIGTERM checkpoints and exits with code 3 so the run can be resumed")
		resume     = flag.Bool("resume", false, "with -store: serve completed cells from the store instead of recomputing them (only missing or degraded cells run)")
		retries    = flag.Int("retries", -1, "per-sweep-cell retry budget on derived seeds (-1 = keep the default of 1)")
		retryWait  = flag.Duration("retry-backoff", 0, "base for deterministic exponential backoff before retry attempts (0 = retry immediately); never affects simulation results")
		breaker    = flag.Int("breaker", 0, "per-algorithm-pair circuit breaker: skip a pair's remaining cells after this many consecutive degradations (0 = off); skipped cells resume later with -store -resume")
	)
	flag.StringVar(&matrixFlags.algos, "matrix", "", "matrix experiment: comma-separated algorithm specs key[:arg], e.g. 'tcp:0.5,tfrc:8,sqrt' (empty = the paper's seven); one of\n"+exp.AlgoSyntax())
	flag.StringVar(&matrixFlags.topology, "topology", "both", "matrix experiment: dumbbell, parking-lot[:hops], or both")
	flag.StringVar(&matrixFlags.tsvPath, "tsv", "", "matrix experiment: also write the deterministic TSV artifact to this file")
	flag.BoolVar(&matrixFlags.failDegraded, "fail-degraded", false, "exit nonzero when any sweep cell degrades (CI smoke gate)")
	flag.Parse()

	if *maxEvents > 0 || *deadline > 0 {
		// A deadline abandons the cell's goroutine; the wall budget makes
		// the abandoned run actually halt instead of spinning.
		b := &sim.Budget{MaxEvents: uint64(*maxEvents)}
		if *deadline > 0 {
			b.MaxWall = *deadline
		}
		exp.SetRunBudget(b)
	}
	if *deadline > 0 || *retries >= 0 || *retryWait > 0 || *breaker > 0 {
		pol := exp.SweepPolicy()
		if *deadline > 0 {
			pol.Deadline = *deadline
		}
		if *retries >= 0 {
			pol.Retries = *retries
		}
		if *retryWait > 0 {
			pol.BackoffBase = *retryWait
		}
		if *breaker > 0 {
			pol.BreakerThreshold = *breaker
		}
		exp.SetSweepPolicy(pol)
	}
	if *resume && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "-resume requires -store DIR")
		os.Exit(2)
	}
	var cellStore *store.Store
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-store: %v\n", err)
			os.Exit(1)
		}
		if st.TornTail() || st.Corrupt() > 0 {
			fmt.Fprintf(os.Stderr, "store %s: quarantined damaged journal data (torn tail: %v, corrupt entries: %d); affected cells will recompute\n",
				st.Dir(), st.TornTail(), st.Corrupt())
		}
		cellStore = st
		exp.SetSweepStore(st, *resume)
	}
	if *faultSpec != "" {
		fc, err := faults.ParseSpec(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-fault: %v\n", err)
			os.Exit(2)
		}
		exp.SetFaultConfig(&fc)
	}
	var sweepTL *obs.Timeline
	if *timeline != "" {
		sweepTL = obs.NewTimeline()
		exp.SetSweepTimeline(sweepTL)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects so the heap profile is stable
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	exps := experiments()
	if *list || *name == "" {
		fmt.Println("experiments:")
		for _, e := range exps {
			fmt.Printf("  %-18s %s\n", e.name, e.desc)
		}
		if *name == "" && !*list {
			os.Exit(2)
		}
		return
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].name < exps[j].name })
	ran := false
	m := obs.NewManifest("slowccsim", *seed)
	m.Config["full"] = strconv.FormatBool(*full)
	m.Config["exp"] = *name
	if *maxEvents > 0 {
		m.Config["max_events"] = strconv.FormatInt(*maxEvents, 10)
	}
	if *deadline > 0 {
		m.Config["deadline"] = deadline.String()
	}
	if *retries >= 0 {
		m.Config["retries"] = strconv.Itoa(*retries)
	}
	if *breaker > 0 {
		m.Config["breaker"] = strconv.Itoa(*breaker)
	}
	// Deliberately NOT in the config (and so not in the run digest):
	// -store/-resume (a resumed run must digest identically to an
	// uninterrupted one) and -retry-backoff (pure wall-clock scheduling,
	// provably unable to affect results).
	if *faultSpec != "" {
		m.Config["fault"] = *faultSpec
	}
	if matrixFlags.algos != "" {
		m.Config["matrix"] = matrixFlags.algos
	}
	if matrixFlags.topology != "both" {
		m.Config["topology"] = matrixFlags.topology
	}
	// The run digest (seed + flags, before any results land) names this
	// run in structured logs and on /metrics, so a scrape or a log line
	// can be tied back to the exact invocation that produced it.
	runDigest := m.ComputeDigest()
	var (
		prog *export.Progress
		srv  *export.Server
	)
	if *serve != "" || *slogLevel != "" {
		if *slogLevel != "" {
			var lvl slog.Level
			if err := lvl.UnmarshalText([]byte(*slogLevel)); err != nil {
				fmt.Fprintf(os.Stderr, "-slog: %v\n", err)
				os.Exit(2)
			}
			h := slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})
			exp.SetSweepLogger(slog.New(h).With("run", runDigest))
		}
		if *serve != "" {
			col := export.NewCollector()
			prog = export.NewProgress(col)
			prog.SetRun(runDigest)
			exp.SetSweepProgress(prog)
			if cellStore != nil {
				col.SetCounterFunc("store.hits", cellStore.Hits)
				col.SetCounterFunc("store.misses", cellStore.Misses)
				col.SetCounterFunc("store.corrupt", cellStore.Corrupt)
			}
			srv = export.NewServer(col, prog)
			addr, err := srv.Start(*serve)
			if err != nil {
				fmt.Fprintf(os.Stderr, "-serve: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "serving telemetry on http://%s/{metrics,healthz,progress,debug/pprof}\n", addr)
		}
	}
	var storeSig chan os.Signal
	if cellStore != nil {
		// Graceful shutdown: the first SIGINT/SIGTERM lets in-flight cells
		// finish and commit, skips the rest, checkpoints the journal, and
		// exits with code 3 ("resume me"). A second signal is fatal as
		// usual (the journal's per-entry fsync still bounds the loss to
		// the in-flight cells).
		storeSig = make(chan os.Signal, 1)
		signal.Notify(storeSig, os.Interrupt, syscall.SIGTERM)
		go func() {
			s := <-storeSig
			fmt.Fprintf(os.Stderr, "%v: stopping gracefully — finishing in-flight cells, checkpointing %s\n", s, cellStore.Dir())
			exp.RequestStop()
			signal.Stop(storeSig)
		}()
	}
	wallStart := time.Now()
	for _, e := range exps {
		if *name != "all" && !strings.EqualFold(*name, e.name) {
			continue
		}
		if cellStore != nil {
			// Scope generic (non-matrix) sweep keys by run digest and
			// experiment name: a pure function of the invocation, so an
			// interrupted and a resumed run derive identical cell keys.
			exp.SetSweepScope(runDigest + "|" + e.name)
		}
		ran = true
		start := time.Now()
		text, data := e.run(*full, *seed)
		// The result digest makes the manifest a reproducibility record:
		// same binary, same seed, same flags must yield the same digests.
		if blob, err := json.Marshal(data); err == nil {
			m.Outputs[e.name] = obs.DigestBytes(blob)
			m.Algos = append(m.Algos, e.name)
		}
		if *asJSON {
			blob, err := json.MarshalIndent(map[string]any{"experiment": e.name, "result": data}, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
				os.Exit(1)
			}
			fmt.Println(string(blob))
		} else {
			fmt.Println(text)
			fmt.Printf("[%s finished in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *name)
		os.Exit(2)
	}
	// Supervised sweeps degrade poisoned cells instead of aborting; make
	// the degradation loud and durable rather than silent.
	degraded := false
	if errs := exp.SweepErrors(); len(errs) > 0 {
		fmt.Fprintf(os.Stderr, "%d sweep cell(s) degraded:\n", len(errs))
		for _, e := range errs {
			fmt.Fprintf(os.Stderr, "  %v\n", e)
		}
		m.Config["degraded_cells"] = strconv.Itoa(len(errs))
		degraded = true
	}
	if sweepTL != nil {
		if err := sweepTL.WriteFile(*timeline); err != nil {
			fmt.Fprintf(os.Stderr, "timeline: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("sweep timeline written to %s (%d events)\n", *timeline, sweepTL.Len())
	}
	if *manifest != "" {
		m.WallTimeS = time.Since(wallStart).Seconds()
		if err := m.WriteFile(*manifest); err != nil {
			fmt.Fprintf(os.Stderr, "manifest: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("manifest written to %s\n", *manifest)
	}
	if cellStore != nil {
		// Compact the journal into a snapshot and surface the cache's
		// work; the summary line is what resume smokes grep for.
		if err := cellStore.Checkpoint(); err != nil {
			fmt.Fprintf(os.Stderr, "store checkpoint: %v\n", err)
		}
		fmt.Fprintf(os.Stderr, "store %s: %d entries, %d hits, %d misses, %d corrupt\n",
			cellStore.Dir(), cellStore.Len(), cellStore.Hits(), cellStore.Misses(), cellStore.Corrupt())
		if stopped := exp.StoppedCells(); stopped > 0 {
			fmt.Fprintf(os.Stderr, "%d cell(s) skipped by graceful stop\n", stopped)
		}
		if err := cellStore.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "store close: %v\n", err)
		}
		if exp.StopRequested() {
			fmt.Fprintf(os.Stderr, "interrupted; resume with: -store %s -resume\n", cellStore.Dir())
			os.Exit(exitInterrupted)
		}
		// The run finished uninterrupted; release the graceful-stop
		// handler so a later SIGTERM (e.g. shutting down -serve) is not
		// misreported as a mid-sweep stop.
		signal.Stop(storeSig)
	}
	if prog != nil {
		prog.RunDone()
	}
	if srv != nil {
		// All outputs are on disk; keep the endpoints up so the run's
		// final metrics can be scraped, unless this is a CI smoke.
		if !*serveOnce {
			fmt.Fprintln(os.Stderr, "run complete; serving telemetry until SIGINT/SIGTERM")
			ch := make(chan os.Signal, 1)
			signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
			<-ch
		}
		srv.Close()
	}
	if degraded && matrixFlags.failDegraded {
		// After the manifest is on disk, so the failure is inspectable.
		fmt.Fprintln(os.Stderr, "-fail-degraded: degraded cells present")
		os.Exit(1)
	}
}

// matrixFlags carries the matrix experiment's extra CLI surface; the
// flags are registered in main and read by runMatrix.
var matrixFlags struct {
	algos        string
	topology     string
	tsvPath      string
	failDegraded bool
}

// parseTopologyFlag maps -topology onto the matrix topology axis:
// "dumbbell", "parking-lot", "parking-lot:K", or "both".
func parseTopologyFlag(s string) (topos []string, hops int, err error) {
	name, arg, hasArg := strings.Cut(s, ":")
	if hasArg {
		hops, err = strconv.Atoi(arg)
		if err != nil || hops < 1 {
			return nil, 0, fmt.Errorf("topology %q: hop count must be a positive integer", s)
		}
	}
	switch strings.ToLower(name) {
	case "dumbbell":
		if hasArg {
			return nil, 0, fmt.Errorf("topology %q: the dumbbell has exactly one bottleneck", s)
		}
		return []string{exp.TopoDumbbell}, 0, nil
	case "parking-lot":
		return []string{exp.TopoParkingLot}, hops, nil
	case "both", "":
		return []string{exp.TopoDumbbell, exp.TopoParkingLot}, hops, nil
	}
	return nil, 0, fmt.Errorf("unknown topology %q (want dumbbell, parking-lot[:hops], or both)", s)
}

func runMatrix(full bool, seed int64) (string, any) {
	cfg := exp.MatrixConfig{Seed: seed}
	if !full {
		cfg.Warmup = 3
		cfg.Measure = 12
		cfg.Period = 1
	}
	if matrixFlags.algos != "" {
		algos, err := exp.ParseAlgoList(matrixFlags.algos)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-matrix: %v\n", err)
			os.Exit(2)
		}
		cfg.Algos = algos
	}
	topos, hops, err := parseTopologyFlag(matrixFlags.topology)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-topology: %v\n", err)
		os.Exit(2)
	}
	cfg.Topologies = topos
	if hops > 0 {
		cfg.Hops = hops
	}
	cells := exp.Matrix(cfg)
	tsv := exp.RenderMatrixTSV(cells)
	if matrixFlags.tsvPath != "" {
		if werr := os.WriteFile(matrixFlags.tsvPath, []byte(tsv), 0o644); werr != nil {
			fmt.Fprintf(os.Stderr, "-tsv: %v\n", werr)
			os.Exit(1)
		}
	}
	return exp.RenderMatrix(cfg, cells) + "\n" + tsv, cells
}

// stabScenario returns the shared Figure 3/4/5 scenario at the chosen
// scale.
func stabScenario(full bool, seed int64) exp.StabilizationConfig {
	if full {
		return exp.StabilizationConfig{Seed: seed} // paper defaults: 150/180/400
	}
	return exp.StabilizationConfig{OffAt: 50, OnAt: 60, End: 120, Seed: seed}
}

func runFig3(full bool, seed int64) (string, any) {
	cfg := exp.DefaultFig3()
	cfg.Scenario = stabScenario(full, seed)
	res := exp.Fig3(cfg)
	return exp.RenderFig3(res), res
}

func runFig45(full bool, seed int64) (string, any) {
	cfg := exp.Fig45Config{Scenario: stabScenario(full, seed), MaxGamma: 256}
	if !full {
		cfg.MaxGamma = 16
	}
	res := exp.Fig45(cfg)
	return exp.RenderFig45(res), res
}

func runAblationDropTail(full bool, seed int64) (string, any) {
	cfg := exp.Fig45Config{Scenario: stabScenario(full, seed), MaxGamma: 256}
	cfg.Scenario.DropTail = true
	if !full {
		cfg.MaxGamma = 16
	}
	res := exp.Fig45(cfg)
	return "Ablation: DropTail bottleneck (paper reports self-clocking helps here too)\n" +
		exp.RenderFig45(res), res
}

func runAblationECN(full bool, seed int64) (string, any) {
	cfg := exp.FairnessConfig{
		A:   exp.ECNTCPAlgo(0.5),
		B:   exp.ECNTCPAlgo(1.0 / 8),
		ECN: true,
	}
	text, res := fairness(cfg, "ECN fairness", full, seed)
	return "Ablation: ECN marking bottleneck, ECN-TCP(1/2) vs ECN-TCP(1/8)\n" + text, res
}

func runAblationTEAR(full bool, seed int64) (string, any) {
	sc := stabScenario(full, seed)
	sc.Algo = exp.TEARAlgo(0)
	r := exp.RunStabilization(sc)
	head := fmt.Sprintf("Ablation: TEAR stabilization — steady %.2f%%, time %.0f RTTs, cost %.2f\n\n",
		r.Steady*100, r.Stab.TimeRTTs, r.Stab.Cost)
	cfg := exp.FairnessConfig{A: exp.TCPAlgo(0.5), B: exp.TEARAlgo(0)}
	text, res := fairness(cfg, "TCP vs TEAR under oscillation", full, seed)
	return head + text, map[string]any{"stabilization": r, "fairness": res}
}

func runStaticCompat(full bool, seed int64) (string, any) {
	cfg := exp.StaticCompatConfig{Seed: seed}
	if !full {
		cfg.Warmup = 20
		cfg.Measure = 60
	}
	res := exp.StaticCompat(cfg)
	return exp.RenderStaticCompat(cfg, res), res
}

func runRTTFairness(full bool, seed int64) (string, any) {
	cfg := exp.RTTFairnessConfig{Seed: seed}
	if !full {
		cfg.Warmup = 15
		cfg.Measure = 60
	}
	res := exp.RTTFairness(cfg)
	return exp.RenderRTTFairness(cfg, res), res
}

func runQueueDynamics(full bool, seed int64) (string, any) {
	cfg := exp.QueueDynamicsConfig{Seed: seed}
	if !full {
		cfg.Warmup = 15
		cfg.Measure = 60
	}
	res := exp.QueueDynamics(cfg)
	text := exp.RenderQueueDynamics(cfg, res)
	cfgDT := cfg
	cfgDT.DropTail = true
	resDT := exp.QueueDynamics(cfgDT)
	text += "\n" + exp.RenderQueueDynamics(cfgDT, resDT)
	return text, map[string]any{"red": res, "droptail": resDT}
}

func runFig6(full bool, seed int64) (string, any) {
	cfg := exp.Fig6Config{Seed: seed}
	if !full {
		cfg.CrowdStart = 15
		cfg.End = 40
		cfg.Flows = 6
	}
	res := exp.Fig6(cfg)
	return exp.RenderFig6(cfg, res), res
}

func runOutage(full bool, seed int64) (string, any) {
	cfg := exp.OutageConfig{Seed: seed}
	if !full {
		cfg.OutageAt = 15
		cfg.OutageDur = 3
		cfg.End = 45
		cfg.Flows = 6
	}
	res := exp.Outage(cfg)
	return exp.RenderOutage(cfg, res), res
}

func fairness(base exp.FairnessConfig, title string, full bool, seed int64) (string, []exp.FairnessPoint) {
	base.Seed = seed
	if !full {
		base.Periods = []sim.Time{0.2, 1, 4, 16}
		base.Warmup = 15
		base.Measure = 60
	}
	res := exp.Fairness(base)
	return exp.RenderFairness(title, base, res), res
}

func runFig7(full bool, seed int64) (string, any) {
	text, res := fairness(exp.DefaultFig7(), "Figure 7", full, seed)
	return text, res
}

func runFig8(full bool, seed int64) (string, any) {
	text, res := fairness(exp.DefaultFig8(), "Figure 8", full, seed)
	return text, res
}

func runFig9(full bool, seed int64) (string, any) {
	text, res := fairness(exp.DefaultFig9(), "Figure 9", full, seed)
	return text, res
}

func convScenario(full bool, seed int64) (exp.ConvergenceConfig, int) {
	cfg := exp.ConvergenceConfig{Seeds: []int64{seed, seed + 1, seed + 2}}
	max := 256
	if !full {
		cfg.Horizon = 200
		cfg.Seeds = []int64{seed}
		max = 16
	}
	return cfg, max
}

func runFig10(full bool, seed int64) (string, any) {
	cfg, max := convScenario(full, seed)
	res := exp.Fig10(cfg, max)
	h := cfg.Horizon
	if h == 0 {
		h = 600
	}
	return exp.RenderConvergence("Figure 10: TCP(b)", res, h), res
}

func runFig11(bool, int64) (string, any) {
	res := exp.Fig11(0.1, 0.1, 256)
	return exp.RenderFig11(0.1, 0.1, res), res
}

func runFig12(full bool, seed int64) (string, any) {
	cfg, max := convScenario(full, seed)
	res := exp.Fig12(cfg, max)
	h := cfg.Horizon
	if h == 0 {
		h = 600
	}
	return exp.RenderConvergence("Figure 12: TFRC(k)", res, h), res
}

func runFig13(full bool, seed int64) (string, any) {
	cfg := exp.Fig13Config{Seed: seed}
	if !full {
		cfg.StopAt = 60
		cfg.MaxGamma = 16
	}
	res := exp.Fig13(cfg)
	return exp.RenderFig13(cfg, res), res
}

func runFig14(full bool, seed int64) (string, any) {
	cfg := exp.OscillationConfig{Seed: seed}
	if !full {
		cfg.Periods = []sim.Time{0.1, 0.4, 1.6, 6.4}
		cfg.Warmup = 10
		cfg.Measure = 60
	}
	res := exp.Oscillation(cfg)
	return exp.RenderOscillation("Figures 14/15 (3:1)", cfg, res), res
}

func runFig16(full bool, seed int64) (string, any) {
	cfg := exp.OscillationConfig{CBRPeak: 13.5e6, Seed: seed}
	if !full {
		cfg.Periods = []sim.Time{0.1, 0.4, 1.6, 6.4}
		cfg.Warmup = 10
		cfg.Measure = 60
	}
	res := exp.Oscillation(cfg)
	return exp.RenderOscillation("Figure 16 (10:1)", cfg, res), res
}

func smoothness(cfg exp.SmoothnessConfig, title string, full bool, seed int64) (string, []exp.SmoothnessResult) {
	cfg.Seed = seed
	if !full {
		cfg.Duration = 80
	}
	res := exp.RunSmoothness(cfg)
	return exp.RenderSmoothness(title, cfg, res), res
}

func runFig17(full bool, seed int64) (string, any) {
	text, res := smoothness(exp.DefaultFig17(), "Figure 17", full, seed)
	return text, res
}

func runFig18(full bool, seed int64) (string, any) {
	text, res := smoothness(exp.DefaultFig18(), "Figure 18", full, seed)
	return text, res
}

func runFig19(full bool, seed int64) (string, any) {
	text, res := smoothness(exp.DefaultFig19(), "Figure 19", full, seed)
	return text, res
}

func runFig20(bool, int64) (string, any) {
	res := exp.Fig20(nil)
	return exp.RenderFig20(res), res
}
