package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"slowcc/internal/exp"
	"slowcc/internal/netem"
	"slowcc/internal/obs"
	"slowcc/internal/obs/export"
	"slowcc/internal/sim"
	"slowcc/internal/store"
	"slowcc/internal/topology"
	wlgen "slowcc/internal/workload" // "workload" is this package's own type
)

// The traced run: the per-layer budget, measured from outside the
// program. Three sources, all in this directory — spans around each call
// into a layer's public functions, counts read from the layers' public
// counters after a traced pass, and direct drives of each layer's API.

// ccAlgos are the endpoints of the per-sender budget: one flow of each
// on a private 10 Mbps dumbbell.
var ccAlgos = []struct {
	name string
	spec exp.AlgoSpec
}{
	{"tcp", exp.TCPAlgo(0.5)},
	{"tfrc", exp.TFRCAlgo(exp.TFRCOpts{K: 8, HistoryDiscounting: true})},
	{"rap", exp.RAPAlgo(0.5)},
	{"binomial", exp.SQRTAlgo(0.5)},
	{"tear", exp.TEARAlgo(0)},
	{"cbr", exp.CBRAlgo(2.5e6)},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perOp times fn(n) reps times and returns each rep's nanoseconds per
// operation.
func perOp(reps, n int, fn func(n int)) []float64 {
	out := make([]float64, reps)
	for r := range out {
		t0 := time.Now()
		fn(n)
		out[r] = float64(time.Since(t0)) / float64(n)
	}
	return out
}

func scaled(k float64, xs []float64) []float64 {
	for i := range xs {
		xs[i] *= k
	}
	return xs
}

// timesOf runs fn reps times and returns each duration through conv.
func timesOf(reps int, conv func(time.Duration) float64, fn func()) []float64 {
	out := make([]float64, reps)
	for r := range out {
		t0 := time.Now()
		fn()
		out[r] = conv(time.Since(t0))
	}
	return out
}

const driveReps = 5

// ---- sim ----

// turnover is the event queue's steady state: `pending` no-op timers
// that each re-schedule themselves one second out, so the queue holds
// exactly that many while every event costs one pop and one push. how
// picks the push: "after" is AfterFunc (a pooled timer per event);
// "rearm" is ResetAfterFunc on the ticker's own handle, the way a link
// re-arms its transmit timer; "stop" is "after" plus, per event, Stop
// and re-arm of a pending five-second timer, the way TCP restarts its
// RTO on every ACK. All three report nanoseconds per executed event on
// a running engine, so sim.rearm_ns and sim.stop_ns read against
// sim.ns_per_event_p64.
func turnover(kind sim.QueueKind, pending, events int, how string) []float64 {
	eng := sim.NewWithQueue(1, kind)
	handles := make([]*sim.Timer, pending)
	var rto *sim.Timer
	noop := func(any) {}
	var tick func(any)
	tick = func(a any) {
		switch how {
		case "rearm":
			handles[a.(int)] = eng.ResetAfterFunc(handles[a.(int)], 1, tick, a)
			return
		case "stop":
			rto.Stop()
			rto = eng.ResetAfterFunc(rto, 5, noop, nil)
		}
		eng.AfterFunc(1, tick, a)
	}
	for i := 0; i < pending; i++ {
		eng.AfterFunc(float64(i)/float64(pending), tick, i)
	}
	eng.RunUntil(2) // fill the timer free list, let the calendar size itself
	return perOp(driveReps, events, func(n int) { eng.RunUntil(eng.Now() + float64(n/pending)) })
}

func simDrives(r *report, n int) {
	r.emit("sim.ns_per_event_p64", turnover(sim.CalendarQueue, 64, n, "after")...)
	r.emit("sim.ns_per_event_p4096", turnover(sim.CalendarQueue, 4096, n, "after")...)
	r.emit("sim.heap_ns_per_event_p4096", turnover(sim.HeapQueue, 4096, n, "after")...)
	r.emit("sim.rearm_ns", turnover(sim.CalendarQueue, 64, n, "rearm")...)
	r.emit("sim.stop_ns", turnover(sim.CalendarQueue, 64, n, "stop")...)
}

// ---- netem ----

func netemDrives(r *report, n int) {
	eng := sim.New(1)
	pool := &netem.PacketPool{}
	l := netem.NewLink(eng, 10e9, 1e-6, netem.NewDropTail(64), netem.Sink{Pool: pool})
	l.Pool = pool
	r.emit("netem.link_ns_per_pkt", perOp(driveReps, n, func(n int) {
		for sent := 0; sent < n; sent += 32 { // back to back, inside the queue's capacity
			for i := 0; i < 32; i++ {
				p := pool.Get()
				p.Kind, p.Size = netem.Data, 1000
				l.Send(p)
			}
			eng.Run()
		}
	})...)

	pkt := &netem.Packet{Size: 1000}
	red := netem.NewRED(15, 80, 160, 0.0008, rand.New(rand.NewSource(1)))
	r.emit("netem.red_ns_per_pkt", perOp(driveReps, n, func(n int) {
		for i := 0; i < n; i++ {
			if red.Enqueue(pkt, float64(i)*0.0008) {
				red.Dequeue(float64(i) * 0.0008)
			}
		}
	})...)
	dt := netem.NewDropTail(160)
	r.emit("netem.droptail_ns_per_pkt", perOp(driveReps, n, func(n int) {
		for i := 0; i < n; i++ {
			if dt.Enqueue(pkt, 0) {
				dt.Dequeue(0)
			}
		}
	})...)
	r.emit("netem.pool_ns_per_getput", perOp(driveReps, n, func(n int) {
		for i := 0; i < n; i++ {
			pool.Put(pool.Get())
		}
	})...)
}

// mixedCounts reads the public counters a traced engine_mixed pass left.
func mixedCounts(r *report, m *mixedRun) {
	r.emit("sim.events", float64(m.eng.Steps()))
	r.emit("sim.scheduled", float64(m.eng.Scheduled()))
	r.emit("sim.rearms", float64(m.eng.Rearms()))
	r.emit("sim.stops", float64(m.eng.Stops()))
	var arrivals, drops, marks, sent, recv int64
	for _, links := range [][]*netem.Link{m.net.Fwd, m.net.Rev} {
		for _, l := range links {
			arrivals += l.Stats.Arrivals
			drops += l.Stats.Drops
			if red, ok := l.Q.(*netem.RED); ok {
				marks += red.Marks
			}
		}
	}
	for _, f := range m.flows {
		sent += f.SentBytes()
		recv += f.RecvBytes()
	}
	r.emit("netem.arrivals", float64(arrivals))
	r.emit("netem.drops", float64(drops))
	r.emit("netem.marks", float64(marks))
	r.emit("netem.delivered_ratio", float64(recv)/float64(sent))
}

// ---- cc ----

func ccDrives(r *report, e *env, tr *tracer) {
	for _, a := range ccAlgos {
		eng := sim.New(e.seed)
		d := topology.New(eng, topology.Config{Rate: 10e6, Seed: e.seed})
		f := a.spec.Make(eng, d, 1)
		eng.At(0, f.Sender.Start)
		wall := tr.span("cc", a.name+" flow", func() { eng.RunUntil(e.size.ccSimS) })
		r.emit("cc."+a.name+".ns_per_event", float64(wall)/float64(eng.Steps()))
		r.emit("cc."+a.name+".events", float64(eng.Steps()))
	}
}

// ---- topology, workload ----

func setupDrives(r *report, e *env) {
	const batches, per = 20, 50
	build := func(fabric func(eng *sim.Engine) topology.Fabric) (usPer, mallocsPer []float64) {
		for b := 0; b < batches; b++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			for i := 0; i < per; i++ {
				eng := sim.New(e.seed)
				f := fabric(eng)
				exp.TCPAlgo(0.5).Make(eng, f, 1)
				exp.TCPAlgo(0.5).Make(eng, f, 2)
			}
			usPer = append(usPer, us(time.Since(t0))/per)
			runtime.ReadMemStats(&m1)
			mallocsPer = append(mallocsPer, float64(m1.Mallocs-m0.Mallocs)/per)
		}
		return usPer, mallocsPer
	}
	dumbbellUS, mallocs := build(func(eng *sim.Engine) topology.Fabric {
		return topology.New(eng, topology.Config{Rate: 10e6, Seed: e.seed})
	})
	net3US, _ := build(func(eng *sim.Engine) topology.Fabric {
		return topology.NewNet(eng, topology.NetConfig{Hops: make([]topology.Hop, 3), Seed: e.seed})
	})
	r.emit("topology.dumbbell_setup_us", dumbbellUS...)
	r.emit("topology.net3_setup_us", net3US...)
	r.emit("topology.setup_mallocs", mallocs...)

	const crowdRate, crowdS = 200, 5 // the paper's crowd: 1000 ten-packet transfers
	r.emit("workload.flashcrowd_us_per_flow", timesOf(driveReps, func(d time.Duration) float64 {
		return us(d) / (crowdRate * crowdS)
	}, func() {
		eng := sim.New(e.seed)
		d := topology.New(eng, topology.Config{Rate: 10e6, Seed: e.seed})
		wlgen.NewFlashCrowd(eng, d, wlgen.FlashCrowdConfig{Duration: crowdS, RatePerSec: crowdRate, FirstFlowID: 1})
	})...)
}

// ---- exp ----

// matrixRef is one no-store matrix with only the given sweep hook
// attached: the reference, and the numerator of each overhead ratio.
func matrixRef(e *env, hook string) (wallS float64, tsv string, err error) {
	exp.ResetSweepErrors()
	switch hook {
	case "sink":
		prev := exp.SetSweepProgress(&cellSink{})
		defer exp.SetSweepProgress(prev)
	case "timeline":
		prev := exp.SetSweepTimeline(obs.NewTimeline())
		defer exp.SetSweepTimeline(prev)
	}
	t0 := time.Now()
	tsv, _, err = storedMatrix(e, nil, "", false)
	wallS = time.Since(t0).Seconds()
	if n := len(exp.SweepErrors()); err == nil && n > 0 {
		err = fmt.Errorf("no-store matrix (%s) degraded %d cells", hook, n)
	}
	return wallS, tsv, err
}

func cellMetrics(r *report, sink *cellSink) {
	r.emit("exp.cell_ms_p50", median(sink.cellMS))
	p95, ok := percentile(sink.cellMS, 0.95)
	if !ok {
		r.fail("exp.cell_ms_p95: only %d cells, fewer than ten beyond the 95th percentile", len(sink.cellMS))
	}
	r.emit("exp.cell_ms_p95", p95)
	r.emit("exp.cell_ms_max", sorted(sink.cellMS)[len(sink.cellMS)-1])
	r.emit("exp.cells", float64(sink.cells()))
	r.emit("exp.retries", float64(sink.retries))
	r.emit("exp.degraded", float64(sink.degraded))
}

// idleRatio is the share of worker time not spent inside a cell.
func idleRatio(sink *cellSink, sweepS float64) float64 {
	return 1 - sink.busyS()/(float64(runtime.GOMAXPROCS(0))*sweepS)
}

func expDrives(r *report, n int, tsv string) {
	r.emit("exp.supervise_us_per_cell", scaled(1e-3, perOp(driveReps, n/64, func(n int) {
		for i := 0; i < n; i++ {
			exp.Supervise(i, func(*exp.Cell) int { return 0 })
		}
	}))...)
	cells, err := exp.ParseMatrixTSV(strings.NewReader(tsv))
	if err != nil || len(cells) != matrixCells {
		r.fail("exp.ParseMatrixTSV: %d cells, %v", len(cells), err)
		return
	}
	r.emit("exp.render_tsv_ms", timesOf(driveReps, ms, func() { exp.RenderMatrixTSV(cells) })...)
	r.emit("exp.parse_tsv_ms", timesOf(driveReps, ms, func() { exp.ParseMatrixTSV(strings.NewReader(tsv)) })...)
}

// ---- store ----

// copyDir copies dir's regular files; it is how the benchmark keeps a
// store's on-disk state from before Close compacts it, without knowing
// the store's file names.
func copyDir(dst, src string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		blob, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), blob, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func dirBytes(dir string) (n int64) {
	ents, _ := os.ReadDir(dir)
	for _, ent := range ents {
		if info, err := ent.Info(); err == nil {
			n += info.Size()
		}
	}
	return n
}

// storeDrives re-Puts the real entries a cold matrix left in coldDir
// into a fresh store and times each side of the format.
func storeDrives(r *report, e *env, coldDir string) error {
	src, err := store.OpenReadOnly(coldDir)
	if err != nil {
		return err
	}
	entries := src.Entries()
	if len(entries) != matrixCells {
		return fmt.Errorf("store drives: cold store holds %d entries, want %d", len(entries), matrixCells)
	}
	dir := filepath.Join(e.workdir, "store-drive")
	journalDir := filepath.Join(e.workdir, "store-drive-journal")
	defer os.RemoveAll(dir)
	defer os.RemoveAll(journalDir)

	probe := filepath.Join(e.workdir, "fsync-probe")
	f, err := os.Create(probe)
	if err != nil {
		return err
	}
	defer os.Remove(probe)
	defer f.Close()
	block := make([]byte, 4096)
	var probeErr error
	r.emit("store.fsync_probe_us", timesOf(20, us, func() {
		if _, err := f.WriteAt(block, 0); err != nil {
			probeErr = err
		}
		if err := f.Sync(); err != nil {
			probeErr = err
		}
	})...)
	if probeErr != nil {
		return probeErr
	}

	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	putUS := make([]float64, len(entries))
	for i, ent := range entries {
		t0 := time.Now()
		if err := st.Put(*ent); err != nil {
			return err
		}
		putUS[i] = us(time.Since(t0))
	}
	r.emit("store.put_us_p50", median(putUS))
	p95, ok := percentile(putUS, 0.95)
	if !ok {
		r.fail("store.put_us_p95: only %d puts", len(putUS))
	}
	r.emit("store.put_us_p95", p95)
	r.emit("store.bytes_per_entry", float64(dirBytes(dir))/float64(len(entries)))
	if err := copyDir(journalDir, dir); err != nil { // journal only: nothing checkpointed yet
		return err
	}
	r.emit("store.get_us", scaled(1e-3, perOp(driveReps, len(entries), func(int) {
		for _, ent := range entries {
			st.Get(ent.Key)
		}
	}))...)
	var ckErr error
	r.emit("store.checkpoint_ms", timesOf(driveReps, ms, func() {
		if err := st.Checkpoint(); err != nil {
			ckErr = err
		}
	})...)
	if err := st.Close(); err != nil || ckErr != nil {
		return fmt.Errorf("store drives: checkpoint %v, close %v", ckErr, err)
	}
	open := func(d string) func() {
		return func() {
			if s, err := store.OpenReadOnly(d); err != nil || s.Len() != len(entries) {
				ckErr = fmt.Errorf("store drives: reopening %s: %v", d, err)
			}
		}
	}
	r.emit("store.open_journal_ms", timesOf(driveReps, ms, open(journalDir))...)
	r.emit("store.open_snapshot_ms", timesOf(driveReps, ms, open(dir))...)
	return ckErr
}

// ---- obs, trace, invariant: layers on ----

func exportDrives(r *report, col *export.Collector, n int) {
	var buf bytes.Buffer
	var err error
	r.emit("obs.export.scrape_ms", timesOf(driveReps, ms, func() {
		buf.Reset()
		if werr := col.WriteMetrics(&buf); werr != nil {
			err = werr
		}
	})...)
	r.emit("obs.export.scrape_bytes", float64(buf.Len()))
	r.emit("obs.export.validate_ms", timesOf(driveReps, ms, func() {
		if _, _, verr := export.Validate(bytes.NewReader(buf.Bytes())); verr != nil {
			err = verr
		}
	})...)
	if err != nil {
		r.fail("obs.export: %v", err)
	}
	var h obs.Histogram
	r.emit("obs.hist_record_ns", perOp(driveReps, n, func(n int) {
		for i := 0; i < n; i++ {
			h.Record(float64(i&4095) * 1e-5)
		}
	})...)
}

// layerRatios measures what turning each telemetry layer on costs the
// engine_mixed traffic: off and on alternate in one process
// (A B A B A B) so machine drift cancels, and each ratio is
// median(on) / median(off).
func layerRatios(r *report, e *env) {
	cut := func(layer string) float64 {
		m := buildMixed(e.seed, layer, nil)
		t0 := time.Now()
		m.eng.RunUntil(e.size.cutSimS)
		d := time.Since(t0).Seconds()
		if m.audit != nil && len(m.audit.Violations()) > 0 {
			r.fail("invariant auditor: %v", m.audit.Violations()[0])
		}
		return d
	}
	for _, l := range []struct{ layer, metric string }{
		{"digest", "sim.digest_overhead_ratio"},
		{"sampler", "obs.sampler_overhead_ratio"},
		{"journey", "obs.journey_overhead_ratio"},
		{"trace", "trace.overhead_ratio"},
		{"invariant", "invariant.overhead_ratio"},
	} {
		var off, on []float64
		for i := 0; i < 3; i++ {
			off = append(off, cut(""))
			on = append(on, cut(l.layer))
		}
		r.emit(l.metric, median(on)/median(off))
	}
}

// ---- the run ----

// tracedRun produces every per-layer metric. sel are the workloads the
// run reports bench.trace_overhead_ratio and bench.mallocs for;
// untraced holds their untraced median wall seconds when a timed set
// already measured them (otherwise one untraced pass is run here).
func tracedRun(e *env, tr *tracer, sel []*workload, untraced map[string]float64, r *report) error {
	var calib []float64
	cal := func() { calib = append(calib, ms(calibrate())) }
	n := e.size.microOps

	cal()
	if err := checkPinned(); err != nil {
		return err
	}
	simDrives(r, n)
	netemDrives(r, n)
	setupDrives(r, e)
	ccDrives(r, e, tr)

	// The matrix four ways: nothing attached (the reference), a sink,
	// a timeline, and — below, as the traced matrix_cold — a store. The
	// first three alternate (A B C A B C) so drift cancels in the ratios.
	hooks := []string{"", "sink", "timeline"}
	wallS := map[string][]float64{}
	var refTSV string
	for round := 0; round < 2; round++ {
		for _, hook := range hooks {
			cal()
			s, tsv, err := matrixRef(e, hook)
			if err != nil {
				return err
			}
			wallS[hook] = append(wallS[hook], s)
			refTSV = tsv
			if err := r.oracle.observeCheck("matrix", obs.DigestBytes([]byte(tsv))); err != nil {
				r.fail("no-store matrix (%s): %v", hook, err)
			}
		}
	}
	refS := median(wallS[""])
	r.emit("exp.matrix_nostore_wall_s", refS)
	r.emit("exp.collect_overhead_ratio", median(wallS["sink"])/refS)
	r.emit("obs.timeline_overhead_ratio", median(wallS["timeline"])/refS)
	expDrives(r, n, refTSV)

	// One traced pass of every workload: their counts feed the layer
	// metrics whichever workload the run is for.
	want := map[string]bool{"matrix_cold": true} // its untraced wall is store.cold_overhead_ratio's numerator
	for _, w := range sel {
		want[w.name] = true
	}
	col := export.NewCollector()
	for _, name := range []string{"matrix_cold", "matrix_warm", "engine_mixed", "figures"} {
		w := findWorkload(name)
		cal()
		tr.workload = name
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var out passOut
		var err error
		if name == "matrix_cold" {
			e.collector = col // filled the way a served sweep fills it
		}
		wall := tr.span("bench", name+" traced pass", func() { out, err = w.pass(e, tr) }).Seconds()
		runtime.ReadMemStats(&m1)
		tr.workload, e.collector = "", nil
		if err != nil {
			return err
		}
		r.count(out.ops, out.failed)
		r.check(name, out, out.ops)
		if _, ok := untraced[name]; want[name] && !ok {
			cal()
			t0 := time.Now()
			plain, err := w.pass(e, nil)
			untraced[name] = time.Since(t0).Seconds()
			if plain.dir != "" {
				os.RemoveAll(plain.dir)
			}
			if err != nil {
				return err
			}
			r.count(out.ops, plain.failed)
			r.check(name, plain, out.ops)
		}
		if want[name] {
			r.emitFor(name, "bench.trace_overhead_ratio", wall/untraced[name])
			r.emitFor(name, "bench.mallocs", float64(m1.Mallocs-m0.Mallocs))
		}
		switch name {
		case "matrix_cold":
			cellMetrics(r, out.sink)
			r.emit("exp.matrix_worker_idle_ratio", idleRatio(out.sink, wall))
			r.emit("store.cold_overhead_ratio", untraced[name]/refS)
			exportDrives(r, col, n)
			err = storeDrives(r, e, out.dir)
			if e.warmDir == "" {
				e.warmDir = out.dir // what the traced matrix_warm replays
			} else {
				os.RemoveAll(out.dir)
			}
			if err != nil {
				return err
			}
		case "matrix_warm":
			r.emit("store.hits", float64(out.store[0]))
			r.emit("store.misses", float64(out.store[1]))
			r.emit("store.corrupt", float64(out.store[2]))
		case "engine_mixed":
			mixedCounts(r, out.mixed)
		case "figures":
			for _, f := range figureSet {
				r.emit(fmt.Sprintf("exp.%s_s", f.name), out.driver[f.name])
			}
			r.emit("exp.figures_worker_idle_ratio", idleRatio(out.sink, wall))
		}
	}
	cal()
	layerRatios(r, e)
	cal()

	r.emit("bench.calib_ms", median(calib))
	r.emit("bench.calib_spread", spread(calib))
	r.emit("bench.peak_rss_mb", peakRSSMB())
	return nil
}
