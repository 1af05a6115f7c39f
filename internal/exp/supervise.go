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
	// env is the settings snapshot of the sweep the cell belongs to.
	env *sweepEnv
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

// sweepEnv holds a sweep's settings, constant while it runs: the Set*
// functions below write the package's copy, and a sweep —
// supervisedMapKeyed, Supervise, or a scenario built outside any cell —
// copies it once under one lock (currentEnv) and hands the copy to every
// cell. So a Set* call made while a sweep is running applies from the
// next sweep; no caller does that (slowccsim sets everything before its
// first Run, the benchmark brackets each pass).
type sweepEnv struct {
	// deadline bounds each cell's wall-clock time; 0 disables
	// (SetSweepDeadline).
	deadline time.Duration
	budget   *sim.Budget
	fault    *faults.Config
	timeline *obs.Timeline
	sink     obs.SweepSink
	logger   *slog.Logger
	// sweepT0 is the wall-clock origin of every event's AtMS: when the
	// package loaded or the timeline was last set. sweepStart, stamped by
	// currentEnv when anything renders events, is when this sweep began:
	// a queued cell's wait is measured from it.
	sweepT0, sweepStart time.Time
	// store is the durable result store keyed sweeps consult and feed
	// (SetSweepStore); replay additionally serves hits from it.
	store  *store.Store
	replay bool
	// audit runs every scenario under the internal/invariant auditor,
	// and auditFlightDir, when non-empty, makes audited scenarios dump
	// their bottleneck's recent packet trace there on the first
	// violation. Only the package's own
	// TestMain switches them on (see audit.go).
	audit          bool
	auditFlightDir string
}

// supervision is the package's one piece of shared sweep state: the
// settings a sweep snapshots, and what stays live while sweeps run —
// shared across engines because sweeps run cells concurrently.
var supervision = struct {
	mu  sync.Mutex
	env sweepEnv
	// errs collects degraded cells, in sweep order.
	errs []*RunError
	// scope names the current run for generic (non-matrix) sweep keying;
	// scopeSeq counts supervisedMap invocations under the scope so two
	// sweeps in one run cannot collide on (scope, index).
	scope    string
	scopeSeq int
	// stopped counts cells skipped because a graceful stop was requested.
	stopped atomic.Int64
	// auditTotal counts invariant violations; violations keeps the first
	// auditMaxRecorded of them; flightSeq numbers audit dumps.
	auditTotal int64
	violations []invariant.Violation
	flightSeq  atomic.Int64
}{env: sweepEnv{sweepT0: time.Now()}}

// currentEnv snapshots the settings for one sweep, and stamps its start
// when the sweep will publish events.
func currentEnv() sweepEnv {
	supervision.mu.Lock()
	env := supervision.env
	supervision.mu.Unlock()
	if env.telling() {
		env.sweepStart = time.Now()
	}
	return env
}

// setEnv applies one Set* call to the package's settings.
func setEnv(set func(env *sweepEnv)) {
	supervision.mu.Lock()
	defer supervision.mu.Unlock()
	set(&supervision.env)
}

// stopRequested flags a graceful shutdown: supervised sweeps stop
// starting new cells, in-flight cells finish and commit.
var stopRequested atomic.Bool

// SetSweepDeadline bounds each supervised cell's wall-clock time (0:
// none) and returns the previous bound. A cell over it is abandoned on
// its goroutine, which keeps running until its engine drains — pair the
// deadline with a wall budget via SetRunBudget so runaways actually
// stop — and degrades with a deadline RunError.
func SetSweepDeadline(d time.Duration) (prev time.Duration) {
	setEnv(func(env *sweepEnv) { prev, env.deadline = env.deadline, d })
	return prev
}

// SweepErrors returns the degraded cells recorded by supervised sweeps
// since the last reset, in sweep order.
func SweepErrors() []*RunError {
	supervision.mu.Lock()
	defer supervision.mu.Unlock()
	return append([]*RunError(nil), supervision.errs...)
}

// ResetSweepErrors clears the degraded-cell collector (test isolation).
func ResetSweepErrors() {
	supervision.mu.Lock()
	defer supervision.mu.Unlock()
	supervision.errs = nil
}

// SetRunBudget installs a sim.Budget that newScenario applies to every
// engine it constructs (the -max-events / -deadline CLI path), or nil
// to remove it; a cell it halts is degraded. Returns the previous budget.
func SetRunBudget(b *sim.Budget) (prev *sim.Budget) {
	setEnv(func(env *sweepEnv) { prev, env.budget = env.budget, b })
	return prev
}

// SetFaultConfig installs a fault configuration that newScenario
// attaches (as a fresh faults.Injector per engine) to every scenario's
// forward bottleneck — the -fault CLI path. nil or a disabled config
// removes it. Returns the previous config.
func SetFaultConfig(fc *faults.Config) (prev *faults.Config) {
	setEnv(func(env *sweepEnv) { prev, env.fault = env.fault, fc })
	return prev
}

// SetSweepTimeline installs a timeline that supervised sweeps draw
// their cell transitions on (obs.Timeline.SweepEvent): a queued span
// per cell from its sweep's start, a running span on the lane of the
// worker goroutine that ran it, and a degraded or cached instant —
// or nil to remove it. Timestamps are wall-clock microseconds since
// this call. Returns the previous timeline.
func SetSweepTimeline(tl *obs.Timeline) (prev *obs.Timeline) {
	setEnv(func(env *sweepEnv) {
		prev, env.timeline = env.timeline, tl
		env.sweepT0 = time.Now()
	})
	return prev
}

// SetSweepProgress installs a live progress sink (export.Progress, or
// anything else implementing obs.SweepSink): supervised sweeps send it
// every cell transition and, for every successfully finished cell, an
// obs.CellStats snapshot of the counters and stream digest of each
// engine the cell constructed. The sink is what switches that harvest
// on; a timeline or a logger does not. Snapshots are taken on
// the worker goroutine after the job returns, so the sink never observes
// a live engine. nil removes the sink; returns the previous one.
func SetSweepProgress(sink obs.SweepSink) (prev obs.SweepSink) {
	setEnv(func(env *sweepEnv) { prev, env.sink = env.sink, sink })
	return prev
}

// SetSweepLogger installs a structured logger for supervised cells: one
// record per cell transition (logSweepEvent). Callers attach run-scoped
// attributes — slowccsim adds the run-manifest digest via
// logger.With("run", digest) — so every record of a sweep carries its
// provenance. nil removes the logger; returns the previous one.
func SetSweepLogger(l *slog.Logger) (prev *slog.Logger) {
	setEnv(func(env *sweepEnv) { prev, env.logger = env.logger, l })
	return prev
}

// telling reports whether anything renders the sweep's cell
// transitions. When nothing does, the supervisor reads no clock and
// builds no event.
func (env *sweepEnv) telling() bool {
	return env.sink != nil || env.timeline != nil || env.logger != nil
}

// emit publishes one cell transition, stamped now, to each renderer
// installed: the progress sink, the timeline and the logger.
func (env *sweepEnv) emit(ev obs.SweepEvent, now time.Time) {
	ev.AtMS = ms(now.Sub(env.sweepT0))
	if env.sink != nil {
		env.sink.SweepEvent(ev)
	}
	if env.timeline != nil {
		env.timeline.SweepEvent(ev)
	}
	if env.logger != nil {
		logSweepEvent(env.logger, ev)
	}
}

// queued publishes that a worker picked the cell up, and returns when.
func (env *sweepEnv) queued(index, worker int) time.Time {
	now := time.Now()
	env.emit(obs.SweepEvent{Kind: obs.SweepQueued, Cell: index, Worker: worker,
		WaitMS: ms(now.Sub(env.sweepStart))}, now)
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

// Supervise runs job once as a supervised sweep cell: a panic, the
// sweep deadline or a run budget halt degrades it into a RunError. On
// success the error is nil; callers that are not part of a sweep get
// the error directly and nothing is recorded in SweepErrors.
func Supervise[T any](index int, job func(c *Cell) T) (T, *RunError) {
	env := currentEnv()
	v, _, rerr := superviseCell(&env, index, 0, job)
	return v, rerr
}

// superviseCell runs one cell, once. It ends finished, its value its
// result, or degraded (runAttempt decides); a finished cell also returns
// its telemetry snapshot, which the keyed sweep path commits to the
// result store. Each transition is published once (sweepEnv.emit):
// queued and running, then the done or degraded event that ends it.
func superviseCell[T any](env *sweepEnv, index, worker int, job func(c *Cell) T) (T, obs.CellStats, *RunError) {
	tell := env.telling()
	var t0 time.Time
	if tell {
		t0 = env.queued(index, worker)
		env.emit(obs.SweepEvent{Kind: obs.SweepRunning, Cell: index, Worker: worker}, t0)
	}
	v, cell, rerr := runAttempt(env, index, job) // v is the zero value when rerr is set
	var st obs.CellStats
	ev := obs.SweepEvent{Kind: obs.SweepDone, Cell: index, Worker: worker, Outcome: "ok"}
	if rerr == nil {
		st = cellStats(cell)
		cell.release()
		if env.sink != nil {
			env.sink.CellStats(st)
		}
	} else {
		ev.Kind, ev.Outcome, ev.Halt = obs.SweepDegraded, rerr.Outcome, rerr.Halt
	}
	if tell {
		now := time.Now()
		ev.DurMS = ms(now.Sub(t0))
		env.emit(ev, now)
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
func runAttempt[T any](env *sweepEnv, index int, job func(c *Cell) T) (T, *Cell, *RunError) {
	c := &Cell{index: index, env: env}
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
	if env.deadline <= 0 {
		run()
		o := <-res
		return o.v, c, o.rerr
	}
	go run()
	select {
	case o := <-res:
		return o.v, c, o.rerr
	case <-time.After(env.deadline):
		re := &RunError{Index: index, Outcome: "deadline"}
		// Grace window: when the deadline pairs with an engine wall
		// budget (the documented pairing), the abandoned run halts just
		// past the deadline — wait briefly so its halt lands in the
		// degraded report. The classification stands either way.
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

// supervisedMap is parallelMapIndexed with per-cell supervision: a cell
// that degrades (RunError) yields its zero value and its RunError in
// SweepErrors (recorded in index order, deterministically) instead of
// aborting the sweep. Figures 3-19 run their sweeps through it, so one
// poisoned cell degrades one table entry rather than the whole run.
// When a result store and sweep scope are installed (and the store can
// encode the result type), cells are additionally keyed into
// the store — see storekey.go.
func supervisedMap[T any](n int, fn func(c *Cell) T) []T {
	return supervisedMapKeyed(n, scopeKeys[T](n), fn)
}
