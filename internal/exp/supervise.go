package exp

import (
	"context"
	"fmt"
	"log/slog"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slowcc/internal/faults"
	"slowcc/internal/invariant"
	"slowcc/internal/obs"
	"slowcc/internal/sim"
	"slowcc/internal/store"
	"slowcc/internal/topology"
)

// RunError describes one degraded sweep cell: it panicked, missed its
// deadline, or a run budget halted it before its horizon, so it measured
// nothing; the sweep carried on without it.
type RunError struct {
	// Index is the sweep index of the degraded cell.
	Index int
	// Outcome is how the cell degraded: "panic", "deadline" or "halt".
	Outcome string
	// Value is the recovered panic value (nil unless Outcome is "panic").
	Value any
	// Stack is the panicking goroutine's stack.
	Stack string
	// Halt names every engine's sticky budget halt, "; "-joined in
	// construction order: a halted cell's reason, and beside a panic or a
	// deadline what the budget had already stopped.
	Halt string
}

// Error implements error.
func (e *RunError) Error() string {
	s := fmt.Sprintf("exp: sweep cell %d panicked: %v", e.Index, e.Value)
	switch e.Outcome {
	case "deadline":
		s = fmt.Sprintf("exp: sweep cell %d exceeded its deadline", e.Index)
	case "halt":
		s = fmt.Sprintf("exp: sweep cell %d was halted by its run budget", e.Index)
	}
	if e.Halt != "" {
		s += " (halt: " + e.Halt + ")"
	}
	return s
}

// Cell is the context a supervised job runs under, and what hands the
// job its scenario: newScenario and buildScenario (audit.go) are methods
// on it, so the telemetry the supervisor harvests on success comes with
// the engine rather than being threaded in by the driver.
type Cell struct {
	index int
	// sw is the Sweep the cell belongs to.
	sw *Sweep
	// obsv collects one entry per engine the cell constructed when a
	// sink or a store will read its telemetry: the counter registry and,
	// for a sink, the stream digest the supervisor snapshots into
	// obs.CellStats after the job returns. Only the cell's own goroutine
	// touches it.
	obsv []cellObs
	// nets is every topology buildScenario built for the cell. The
	// supervisor releases them when the cell succeeded (release).
	nets []*topology.Net
}

// release hands the free lists of every net the cell built to the cells
// after it (topology.Net.Release). Only a successful cell is released,
// after its telemetry is harvested: a panicked cell's nets may be
// mid-operation, and an abandoned cell's goroutine still runs on them.
// The job's result holds no engine, link or packet, so nothing that
// outlives the cell runs on released nets.
func (c *Cell) release() {
	for _, n := range c.nets {
		n.Release()
	}
	c.nets = nil
}

// cellObs is one engine's telemetry attachment points. dig is nil when
// only a store consumes the cell (see buildScenario).
type cellObs struct {
	reg *obs.Registry
	dig *sim.StreamDigest
}

// Index returns the sweep index this cell computes.
func (c *Cell) Index() int { return c.index }

// Sweep is the one value that configures a run's supervised sweeps:
// every roster row's Run, driver (sw.Fig3, sw.Matrix, …) and cell reads
// the Sweep it was handed. Its exported fields are the settings, each
// off at its zero value; set them before a sweep, not while one runs.
// It also collects the cells its sweeps degraded (Errors). Two Sweeps
// share only the process-wide graceful stop (RequestStop) and the test
// suite's audit switch (audit.go).
type Sweep struct {
	// Store is the durable result store keyed cells commit into. With
	// Replay they are also served from it (slowccsim -store DIR -resume);
	// without, it only records, so a warm store cannot mask a behavioral
	// change unless resuming was asked for.
	Store  *store.Store
	Replay bool
	// Scope names the run for generic sweep keying: with a Store, every
	// supervisedMap whose result type the store can encode keys its cells
	// by scope, the sequence number of the sweep under it, result type,
	// cell index and sweep size (scopeKeys). It must be a pure function
	// of the run's inputs (slowccsim's is the pre-run manifest digest
	// plus the experiment name) so a resumed run derives the same keys.
	// "" disables generic keying; matrix cells key themselves.
	Scope string
	// Budget is applied to every engine a cell builds (-max-events,
	// -deadline); a cell it halts is degraded. Its MaxWall is also each
	// cell's deadline: a cell over it is abandoned on its goroutine, which
	// the wall budget then halts, and degrades with a deadline RunError.
	Budget *sim.Budget
	// Fault is attached (as a fresh faults.Injector per engine) to every
	// scenario's forward bottleneck — the -fault path. nil or a disabled
	// config injects nothing.
	Fault *faults.Config
	// Progress receives every cell transition and, for every finished
	// cell, an obs.CellStats snapshot of the counters and stream digest
	// of each engine the cell built (export.Progress is one). The sink is
	// what switches that harvest on; a timeline or a logger does not.
	// Snapshots are taken on the worker goroutine after the job returns,
	// so the sink never observes a live engine.
	Progress obs.SweepSink
	// Timeline draws the cell transitions (obs.Timeline.SweepEvent): a
	// queued span per cell from its sweep's start, a running span on the
	// lane of the worker goroutine that ran it, and a degraded or cached
	// instant.
	Timeline *obs.Timeline
	// Logger gets one record per cell transition (logSweepEvent);
	// slowccsim attaches the run-manifest digest via With("run", digest)
	// so every record carries its provenance.
	Logger *slog.Logger

	mu   sync.Mutex
	errs []*RunError // degraded cells, in sweep order, until Errors takes them
	// scopeSeq counts the keyed sweeps run under each scope, so two
	// sweeps of one run cannot collide on (scope, index).
	scopeSeq map[string]int
}

// Errors returns the cells this Sweep's sweeps degraded since the last
// call, in sweep order, and forgets them.
func (sw *Sweep) Errors() []*RunError {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	errs := sw.errs
	sw.errs = nil
	return errs
}

// begin returns when a sweep starts, read only when the sweep will
// publish events.
func (sw *Sweep) begin() (start time.Time) {
	if sw.telling() {
		start = time.Now()
	}
	return start
}

// epoch is the wall-clock origin of every event's AtMS: when the
// package loaded.
var epoch = time.Now()

// supervision is the package's shared sweep state: what stays live
// while sweeps run, shared across engines and Sweeps because sweeps
// run cells concurrently.
var supervision = struct {
	mu sync.Mutex
	// audit runs every scenario under the internal/invariant auditor,
	// and auditFlightDir, when non-empty, makes audited scenarios dump
	// their bottleneck's recent packet trace there on the first
	// violation. Only the package's own TestMain switches them on (see
	// audit.go).
	audit          bool
	auditFlightDir string
	// stopped counts cells skipped because a graceful stop was requested.
	stopped atomic.Int64
	// auditTotal counts invariant violations; violations keeps the first
	// auditMaxRecorded of them; flightSeq numbers audit dumps.
	auditTotal int64
	violations []invariant.Violation
	flightSeq  atomic.Int64
}{}

// stopRequested flags a graceful shutdown: supervised sweeps stop
// starting new cells, in-flight cells finish and commit.
var stopRequested atomic.Bool

// telling reports whether anything renders the sweep's cell
// transitions. When nothing does, the supervisor reads no clock and
// builds no event.
func (sw *Sweep) telling() bool {
	return sw.Progress != nil || sw.Timeline != nil || sw.Logger != nil
}

// emit publishes one cell transition, stamped now, to each renderer
// installed: the progress sink, the timeline and the logger.
func (sw *Sweep) emit(ev obs.SweepEvent, now time.Time) {
	ev.AtMS = ms(now.Sub(epoch))
	if sw.Progress != nil {
		sw.Progress.SweepEvent(ev)
	}
	if sw.Timeline != nil {
		sw.Timeline.SweepEvent(ev)
	}
	if sw.Logger != nil {
		logSweepEvent(sw.Logger, ev)
	}
}

// queued publishes that a worker picked the cell up, start being when
// its sweep began, and returns when.
func (sw *Sweep) queued(start time.Time, index, worker int) time.Time {
	now := time.Now()
	sw.emit(obs.SweepEvent{Kind: obs.SweepQueued, Cell: index, Worker: worker,
		WaitMS: ms(now.Sub(start))}, now)
	return now
}

// ms converts a wall-clock interval into event milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// logSweepEvent is the slog rendering of one cell transition: queued
// and running at Debug, degraded at Warn, the rest at Info.
func logSweepEvent(l *slog.Logger, ev obs.SweepEvent) {
	level := slog.LevelInfo
	switch ev.Kind {
	case obs.SweepQueued, obs.SweepRunning:
		level = slog.LevelDebug
	case obs.SweepDegraded:
		level = slog.LevelWarn
	}
	ctx := context.Background()
	if !l.Enabled(ctx, level) {
		return
	}
	attrs := []slog.Attr{slog.Int("cell", ev.Cell), slog.Int("worker", ev.Worker)}
	for _, a := range [...]struct{ k, v string }{{"outcome", ev.Outcome}, {"halt", ev.Halt}, {"key", ev.Key}} {
		if a.v != "" {
			attrs = append(attrs, slog.String(a.k, a.v))
		}
	}
	if ev.DurMS > 0 {
		attrs = append(attrs, slog.Float64("dur_ms", ev.DurMS))
	}
	l.LogAttrs(ctx, level, "sweep cell "+string(ev.Kind), attrs...)
}

// supervise runs job once as a cell of sw outside any sweep: a panic,
// the deadline or a run budget halt degrades it into a RunError, which
// the caller gets directly; nothing is recorded in sw.Errors.
func supervise[T any](sw *Sweep, index int, job func(c *Cell) T) (T, *RunError) {
	v, _, rerr := superviseCell(sw, sw.begin(), index, 0, job)
	return v, rerr
}

// superviseCell runs one cell, once. It ends finished, its value its
// result, or degraded (runAttempt decides); a finished cell also returns
// its telemetry snapshot, which the keyed sweep path commits to the
// result store. Each transition is published once (Sweep.emit): queued
// and running, then the done or degraded event that ends it; start is
// when the cell's sweep began (Sweep.begin).
func superviseCell[T any](sw *Sweep, start time.Time, index, worker int, job func(c *Cell) T) (T, obs.CellStats, *RunError) {
	tell := sw.telling()
	var t0 time.Time
	if tell {
		t0 = sw.queued(start, index, worker)
		sw.emit(obs.SweepEvent{Kind: obs.SweepRunning, Cell: index, Worker: worker}, t0)
	}
	v, cell, rerr := runAttempt(sw, index, job) // v is the zero value when rerr is set
	var st obs.CellStats
	ev := obs.SweepEvent{Kind: obs.SweepDone, Cell: index, Worker: worker, Outcome: "ok"}
	if rerr == nil {
		st = cellStats(cell)
		cell.release()
		if sw.Progress != nil {
			sw.Progress.CellStats(st)
		}
	} else {
		ev.Kind, ev.Outcome, ev.Halt = obs.SweepDegraded, rerr.Outcome, rerr.Halt
	}
	if tell {
		now := time.Now()
		ev.DurMS = ms(now.Sub(t0))
		sw.emit(ev, now)
	}
	return v, st, rerr
}

// cellStats snapshots a finished cell's telemetry. The event count comes
// from the nets the cell built; summed counters and the XOR-combined
// stream digest come from the attachments a sink or a store asked for
// (Digest 0 over DigestEvents 0 when no engine kept one). Safe because
// the job has returned — nothing else writes to these engines anymore.
func cellStats(c *Cell) obs.CellStats {
	var st obs.CellStats
	for _, n := range c.nets {
		st.Events += n.Eng.Steps()
	}
	if len(c.obsv) == 0 {
		return st
	}
	st.Counters = map[string]int64{}
	for _, o := range c.obsv {
		for k, v := range o.reg.Snapshot() {
			st.Counters[k] += v
		}
		if o.dig != nil {
			st.Digest ^= o.dig.Sum()
			st.DigestEvents += o.dig.Events()
		}
	}
	return st
}

// runAttempt executes the cell's job with panic recovery; with a
// deadline it runs on its own goroutine so a hung cell can be abandoned.
// It decides the cell's outcome: once the job has ended, returned or
// panicked, its own goroutine reads the engines' halts, so a halt
// degrades a returned cell and rides beside a panic or a deadline. The
// Cell comes back for the harvest of a finished cell, never from an
// abandoned job. The job runs under the pprof label slowcc_cell, so CPU
// profiles scraped from /debug/pprof attribute samples to sweep cells.
func runAttempt[T any](sw *Sweep, index int, job func(c *Cell) T) (T, *Cell, *RunError) {
	c := &Cell{index: index, sw: sw}
	type outcome struct {
		v    T
		rerr *RunError
	}
	res := make(chan outcome, 1) // buffered: an abandoned job still completes and is collected
	labels := pprof.Labels("slowcc_cell", fmt.Sprint(index))
	run := func() {
		var o outcome
		defer func() {
			if v := recover(); v != nil {
				o = outcome{rerr: &RunError{Index: index, Outcome: "panic", Value: v, Stack: string(debug.Stack())}}
			}
			var halts []string
			for _, n := range c.nets {
				if h := n.Eng.Halted(); h != nil {
					halts = append(halts, h.String())
				}
			}
			if len(halts) > 0 {
				if o.rerr == nil {
					o = outcome{rerr: &RunError{Index: index, Outcome: "halt"}}
				}
				o.rerr.Halt = strings.Join(halts, "; ")
			}
			res <- o
		}()
		pprof.Do(context.Background(), labels, func(context.Context) {
			o.v = job(c)
		})
	}
	var deadline time.Duration // the budget's MaxWall; 0 is none
	if sw.Budget != nil {
		deadline = sw.Budget.MaxWall
	}
	if deadline <= 0 {
		run()
		o := <-res
		return o.v, c, o.rerr
	}
	go run()
	select {
	case o := <-res:
		return o.v, c, o.rerr
	case <-time.After(deadline):
		re := &RunError{Index: index, Outcome: "deadline"}
		// Grace window: the deadline is the engine wall budget, so an
		// abandoned run that is simulating halts just past it — wait
		// briefly so its halt lands in the degraded report. The
		// classification stands either way.
		select {
		case o := <-res:
			if o.rerr != nil {
				re.Halt = o.rerr.Halt
			}
		case <-time.After(deadlineGrace):
		}
		var zero T
		return zero, nil, re
	}
}

// deadlineGrace bounds how long a deadline-exceeded cell is given to
// actually halt (via its wall budget) before being fully abandoned.
const deadlineGrace = 250 * time.Millisecond

// supervisedMap is parallelMapIndexed with per-cell supervision under
// sw: a cell that degrades (RunError) yields its zero value and its
// RunError in sw.Errors (recorded in index order, deterministically)
// instead of aborting the sweep. Figures 3-19 run their sweeps through
// it, so one poisoned cell degrades one table entry rather than the
// whole run. When sw has a store and a scope (and the store can encode
// the result type), cells are additionally keyed into the store — see
// storekey.go.
func supervisedMap[T any](sw *Sweep, n int, fn func(c *Cell) T) []T {
	return supervisedMapKeyed(sw, n, scopeKeys[T](sw, n), fn)
}
