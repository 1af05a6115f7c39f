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
// bottleneck; -max-events and -deadline bound runaway cells. A sweep
// cell that panics, times out or is halted by either budget is reported
// as degraded on stderr (and counted in the manifest) instead of killing
// the run, and is never stored as a result: -resume recomputes it.
//
// -timeline records sweep telemetry as Chrome trace-event JSON: every
// supervised cell contributes a queued span from its sweep's start, a
// running span on the lane of the worker goroutine that executed it,
// and a degraded or cached instant. Load
// the file in Perfetto to see how a matrix run scheduled across workers:
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

func main() { os.Exit(run()) }

// run is main returning its exit code, so that the profile defers below
// run on every path — a degraded, interrupted or failed run is exactly
// the one worth profiling.
func run() int {
	var (
		name         = flag.String("exp", "", "experiment to run (see -list), or 'all'")
		list         = flag.Bool("list", false, "list experiments")
		full         = flag.Bool("full", false, "use the paper's full durations and sweeps")
		seed         = flag.Int64("seed", 1, "simulation seed")
		asJSON       = flag.Bool("json", false, "emit typed results as JSON instead of tables")
		manifest     = flag.String("manifest", "", "write a deterministic run-manifest JSON to this file")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile   = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		maxEvents    = flag.Int64("max-events", 0, "halt any single scenario after this many events, degrading its cell (0 = unbounded)")
		deadline     = flag.Duration("deadline", 0, "per-sweep-cell wall-clock deadline; a cell over it is degraded, not fatal (0 = none)")
		faultSpec    = flag.String("fault", "", "fault spec injected at every scenario's bottleneck, e.g. 'down:25+5;corrupt:0.001' (see internal/faults)")
		timeline     = flag.String("timeline", "", "write sweep telemetry (per-cell queued/running spans and degraded/cached instants, one lane per worker) as trace-event JSON to this path")
		serve        = flag.String("serve", "", "serve live telemetry on this address (e.g. 127.0.0.1:9155): /metrics, /healthz, /progress SSE, /debug/pprof; blocks after the run until interrupted")
		slogLevel    = flag.String("slog", "", "emit structured sweep logs to stderr at this level (debug, info, warn, error)")
		storeDir     = flag.String("store", "", "durable result store directory: completed sweep cells are journaled here (crash-safe), and SIGINT/SIGTERM checkpoints and exits with code 3 so the run can be resumed")
		resume       = flag.Bool("resume", false, "with -store: serve completed cells from the store instead of recomputing them (only missing or degraded cells run)")
		matrixSpec   = flag.String("matrix", "", "matrix experiment: comma-separated algorithm specs key[:arg], e.g. 'tcp:0.5,tfrc:8,sqrt' (empty = the paper's seven); one of\n"+exp.AlgoSyntax())
		topology     = flag.String("topology", "both", "matrix experiment: dumbbell, parking-lot[:hops], or both")
		tsvPath      = flag.String("tsv", "", "matrix experiment: also write the deterministic TSV artifact to this file")
		failDegraded = flag.Bool("fail-degraded", false, "exit nonzero when any sweep cell degrades (CI smoke gate)")
	)
	flag.Parse()

	// Usage errors first: an invocation that exits 2 must not have opened
	// a store, started a profile or bound a socket.
	matrix, err := matrixOverride(*matrixSpec, *topology)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var faultCfg faults.Config
	if *faultSpec != "" {
		if faultCfg, err = faults.ParseSpec(*faultSpec); err != nil {
			fmt.Fprintf(os.Stderr, "-fault: %v\n", err)
			return 2
		}
	}
	var logLevel slog.Level
	if *slogLevel != "" {
		if err := logLevel.UnmarshalText([]byte(*slogLevel)); err != nil {
			fmt.Fprintf(os.Stderr, "-slog: %v\n", err)
			return 2
		}
	}
	if *maxEvents < 0 {
		fmt.Fprintf(os.Stderr, "-max-events: %d is negative (0 = unbounded)\n", *maxEvents)
		return 2
	}
	if *deadline < 0 {
		fmt.Fprintf(os.Stderr, "-deadline: %v is negative (0 = none)\n", *deadline)
		return 2
	}
	if *resume && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "-resume requires -store DIR")
		return 2
	}
	exps := exp.Experiments()
	if *list || *name == "" {
		fmt.Println("experiments:")
		for _, e := range exps {
			fmt.Printf("  %-18s %s\n", e.Name, e.Desc)
		}
		if !*list {
			return 2
		}
		return 0
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].Name < exps[j].Name })
	var selected []exp.Experiment
	hasMatrix := false
	for _, e := range exps {
		if *name == "all" || strings.EqualFold(*name, e.Name) {
			selected = append(selected, e)
			hasMatrix = hasMatrix || e.Name == "matrix"
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *name)
		return 2
	}
	if *tsvPath != "" && !hasMatrix {
		fmt.Fprintf(os.Stderr, "-tsv: -exp %s does not run the matrix experiment, whose artifact the TSV is\n", *name)
		return 2
	}

	// One Sweep carries the run's settings into every roster row.
	sw := &exp.Sweep{}
	if *maxEvents > 0 || *deadline > 0 {
		// The wall budget is also each cell's deadline: a cell over it is
		// abandoned, and its engine halts instead of spinning.
		sw.Budget = &sim.Budget{MaxEvents: uint64(*maxEvents), MaxWall: *deadline}
	}
	var cellStore *store.Store
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-store: %v\n", err)
			return 1
		}
		if st.TornTail() || st.Corrupt() > 0 {
			fmt.Fprintf(os.Stderr, "store %s: quarantined damaged journal data (torn tail: %v, corrupt entries: %d); affected cells will recompute\n",
				st.Dir(), st.TornTail(), st.Corrupt())
		}
		cellStore = st
		sw.Store, sw.Replay = st, *resume
	}
	if *faultSpec != "" {
		sw.Fault = &faultCfg
	}
	if *timeline != "" {
		sw.Timeline = obs.NewTimeline()
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
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

	m := obs.NewManifest("slowccsim", *seed)
	m.Config["full"] = strconv.FormatBool(*full)
	m.Config["exp"] = *name
	if *maxEvents > 0 {
		m.Config["max_events"] = strconv.FormatInt(*maxEvents, 10)
	}
	if *deadline > 0 {
		m.Config["deadline"] = deadline.String()
	}
	// Deliberately NOT in the config (and so not in the run digest):
	// -store/-resume, since a resumed run must digest identically to an
	// uninterrupted one.
	if *faultSpec != "" {
		m.Config["fault"] = *faultSpec
	}
	if *matrixSpec != "" {
		m.Config["matrix"] = *matrixSpec
	}
	if *topology != "both" {
		m.Config["topology"] = *topology
	}
	// The run digest (seed + flags, before any results land) names this
	// run in structured logs and on /metrics, so a scrape or a log line
	// can be tied back to the exact invocation that produced it.
	runDigest := m.ComputeDigest()
	var (
		prog *export.Progress
		srv  *export.Server
	)
	if *slogLevel != "" {
		h := slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: logLevel})
		sw.Logger = slog.New(h).With("run", runDigest)
	}
	if *serve != "" {
		col := export.NewCollector()
		prog = export.NewProgress(col)
		prog.SetRun(runDigest)
		sw.Progress = prog
		if cellStore != nil {
			col.SetCounterFunc("store.hits", cellStore.Hits)
			col.SetCounterFunc("store.misses", cellStore.Misses)
			col.SetCounterFunc("store.corrupt", cellStore.Corrupt)
		}
		srv = export.NewServer(col, prog)
		addr, err := srv.Start(*serve)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-serve: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "serving telemetry on http://%s/{metrics,healthz,progress,debug/pprof}\n", addr)
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
	for _, e := range selected {
		if cellStore != nil {
			// Scope generic (non-matrix) sweep keys by run digest and
			// experiment name: a pure function of the invocation, so an
			// interrupted and a resumed run derive identical cell keys.
			sw.Scope = runDigest + "|" + e.Name
		}
		start := time.Now()
		text, data := e.Run(sw, *full, *seed, matrix)
		if cells, ok := data.([]exp.MatrixCell); ok && *tsvPath != "" {
			if err := os.WriteFile(*tsvPath, []byte(exp.RenderMatrixTSV(cells)), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "-tsv: %v\n", err)
				return 1
			}
		}
		// The result digest makes the manifest a reproducibility record:
		// same binary, same seed, same flags must yield the same digests.
		if blob, err := json.Marshal(data); err == nil {
			m.Outputs[e.Name] = obs.DigestBytes(blob)
			m.Algos = append(m.Algos, e.Name)
		}
		if *asJSON {
			blob, err := json.MarshalIndent(map[string]any{"experiment": e.Name, "result": data}, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
				return 1
			}
			fmt.Println(string(blob))
		} else {
			fmt.Println(text)
			fmt.Printf("[%s finished in %v]\n\n", e.Name, time.Since(start).Round(time.Millisecond))
		}
	}
	// Supervised sweeps degrade poisoned cells instead of aborting; make
	// the degradation loud and durable rather than silent.
	degraded := false
	if errs := sw.Errors(); len(errs) > 0 {
		fmt.Fprintf(os.Stderr, "%d sweep cell(s) degraded:\n", len(errs))
		for _, e := range errs {
			fmt.Fprintf(os.Stderr, "  %v\n", e)
		}
		m.Config["degraded_cells"] = strconv.Itoa(len(errs))
		degraded = true
	}
	if sw.Timeline != nil {
		if err := sw.Timeline.WriteFile(*timeline); err != nil {
			fmt.Fprintf(os.Stderr, "timeline: %v\n", err)
			return 1
		}
		fmt.Printf("sweep timeline written to %s (%d events)\n", *timeline, sw.Timeline.Len())
	}
	if *manifest != "" {
		m.WallTimeS = time.Since(wallStart).Seconds()
		if err := m.WriteFile(*manifest); err != nil {
			fmt.Fprintf(os.Stderr, "manifest: %v\n", err)
			return 1
		}
		fmt.Printf("manifest written to %s\n", *manifest)
	}
	if cellStore != nil {
		// Surface the cache's work (the summary line is what resume
		// smokes grep for); Close compacts the journal into the snapshot
		// when the run added anything to it.
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
			return exitInterrupted
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
		// final metrics can be scraped. The handler is in place before the
		// announcement, so a signal sent on reading it exits cleanly.
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		fmt.Fprintln(os.Stderr, "run complete; serving telemetry until SIGINT/SIGTERM")
		<-ch
		srv.Close()
	}
	if degraded && *failDegraded {
		// After the manifest is on disk, so the failure is inspectable.
		fmt.Fprintln(os.Stderr, "-fail-degraded: degraded cells present")
		return 1
	}
	return 0
}

// matrixOverride parses -matrix and -topology ("dumbbell",
// "parking-lot[:K]" or "both") into what they override of the matrix
// row's configuration.
func matrixOverride(algos, topology string) (cfg exp.MatrixConfig, err error) {
	if algos != "" {
		if cfg.Algos, err = exp.ParseAlgoList(algos); err != nil {
			return cfg, fmt.Errorf("-matrix: %v", err)
		}
	}
	name, arg, hasArg := strings.Cut(topology, ":")
	if hasArg {
		if cfg.Hops, err = strconv.Atoi(arg); err != nil || cfg.Hops < 1 || cfg.Hops > exp.MaxParkingLotHops {
			return cfg, fmt.Errorf("-topology: topology %q: hop count must be an integer from 1 to %d", topology, exp.MaxParkingLotHops)
		}
	}
	switch strings.ToLower(name) {
	case "dumbbell":
		if hasArg {
			return cfg, fmt.Errorf("-topology: topology %q: the dumbbell has exactly one bottleneck", topology)
		}
		cfg.Topologies = []string{exp.TopoDumbbell}
	case "parking-lot":
		cfg.Topologies = []string{exp.TopoParkingLot}
	case "both", "":
		cfg.Topologies = []string{exp.TopoDumbbell, exp.TopoParkingLot}
	default:
		return cfg, fmt.Errorf("-topology: unknown topology %q (want dumbbell, parking-lot[:hops], or both)", topology)
	}
	return cfg, nil
}
