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
)

// CellPolicy governs how supervised sweep cells run. The zero value
// means one attempt and no deadline; the package starts
// with one retry on a derived seed.
type CellPolicy struct {
	// Retries is the number of extra attempts after the first, each on a
	// fresh seed derived from the cell's own (deriveSeed), so a
	// seed-sensitive numerical pathology gets a genuinely different run
	// while attempt 0 stays bit-identical to an unsupervised run.
	Retries int
	// Deadline bounds each attempt's wall-clock time; 0 disables. A
	// timed-out attempt is abandoned on its goroutine (which keeps
	// running until its engine drains — pair the deadline with an engine
	// Budget via SetRunBudget so runaways actually stop) and the cell
	// reports a deadline RunError.
	Deadline time.Duration
	// BackoffBase, when positive, makes each retry attempt wait before
	// starting: attempt a (a >= 1) sleeps min(BackoffBase << (a-1),
	// DefaultBackoffMax) plus a deterministic spread derived from the
	// cell index and attempt number via the same SplitMix64 round as
	// deriveSeed.
	// The wait is pure wall-clock scheduling — it never draws from any
	// RNG the simulation uses, so enabling backoff cannot perturb the
	// traffic stream, and attempt 0 (which never waits) stays
	// bit-identical.
	BackoffBase time.Duration
	// BreakerThreshold, when positive, arms a per-cell-kind circuit
	// breaker: after this many consecutive degraded cells of the same
	// kind (the matrix driver's kind is the algorithm pair), further
	// cells of that kind are skipped — recorded as BreakerOpen RunErrors
	// and reported, not run — so a systematically failing pairing stops
	// burning deadline budget. A success of the kind closes the breaker.
	// Skipped cells are absent from the result store, so a later -resume
	// run retries them.
	BreakerThreshold int
}

// DefaultBackoffMax bounds exponential retry backoff.
const DefaultBackoffMax = 30 * time.Second

// retryBackoff returns the deterministic wait before attempt a of the
// given cell: exponential in the attempt number, capped, with a spread
// from SplitMix64 so simultaneous retries of different cells spread out
// identically on every run. Attempt 0 never waits.
func retryBackoff(pol CellPolicy, index, attempt int) time.Duration {
	if pol.BackoffBase <= 0 || attempt <= 0 {
		return 0
	}
	d := pol.BackoffBase
	for i := 1; i < attempt && d < DefaultBackoffMax; i++ {
		d *= 2
	}
	d = min(d, DefaultBackoffMax)
	// Spread in [0, d/4]: derived, not drawn — the schedule is a pure
	// function of (index, attempt).
	span := uint64(d/4) + 1
	j := time.Duration(uint64(deriveSeed(int64(index), attempt)) % span)
	return d + j
}

// RunError describes one degraded sweep cell: every attempt panicked or
// timed out, and the sweep carried on without it.
type RunError struct {
	// Index is the sweep index of the degraded cell.
	Index int
	// Attempts is how many times the cell was tried.
	Attempts int
	// Value is the recovered panic value of the last attempt (nil for a
	// deadline halt).
	Value any
	// Stack is the panicking goroutine's stack from the last attempt.
	Stack string
	// Deadline reports that the last attempt exceeded the cell deadline
	// rather than panicking.
	Deadline bool
	// Halt carries the engines' sim.HaltReason strings from the last
	// attempt when they are harvestable: every engine's sticky budget
	// halt, "; "-joined, so a multi-engine cell's degraded report names
	// each leg's reason instead of only the first.
	Halt string
	// BreakerOpen reports that the cell was never run: its kind's
	// circuit breaker was open after consecutive degradations.
	BreakerOpen bool
	// Kind is the cell-kind label the breaker grouped by (the matrix
	// driver's algorithm pair), set on BreakerOpen errors.
	Kind string
}

// Error implements error.
func (e *RunError) Error() string {
	if e.BreakerOpen {
		return fmt.Sprintf("exp: sweep cell %d skipped: circuit breaker open for kind %q after consecutive degradations", e.Index, e.Kind)
	}
	var s string
	if e.Deadline {
		s = fmt.Sprintf("exp: sweep cell %d exceeded its deadline after %d attempts", e.Index, e.Attempts)
	} else {
		s = fmt.Sprintf("exp: sweep cell %d panicked after %d attempts: %v", e.Index, e.Attempts, e.Value)
	}
	if e.Halt != "" {
		s += " (halt: " + e.Halt + ")"
	}
	return s
}

// Cell is the per-attempt context a supervised job runs under, and what
// hands the job its scenario: newScenario and buildScenario (audit.go)
// are methods on it, so the attempt's seed and the telemetry the
// supervisor harvests on success come with the engine rather than being
// threaded in by the driver.
type Cell struct {
	index   int
	attempt int
	// env is the settings snapshot of the sweep the cell belongs to.
	env *sweepEnv
	// obsv collects one entry per engine the cell constructed when a
	// sink or a store will read its telemetry: the counter registry and,
	// for a sink, the stream digest the supervisor snapshots into
	// obs.CellStats after the job returns. Only the attempt's own
	// goroutine touches it.
	obsv []cellObs
}

// cellObs is one engine's telemetry attachment points. dig is nil when
// only a store consumes the cell (see buildScenario).
type cellObs struct {
	eng *sim.Engine
	reg *obs.Registry
	dig *sim.StreamDigest
}

// Index returns the sweep index this cell computes.
func (c *Cell) Index() int { return c.index }

// Attempt returns the zero-based attempt number.
func (c *Cell) Attempt() int { return c.attempt }

// Seed maps the cell's base seed to the seed this attempt should use:
// attempt 0 returns base unchanged, so supervision never perturbs a
// first run; retries get fresh, reproducible derived seeds.
func (c *Cell) Seed(base int64) int64 {
	if c == nil {
		return base
	}
	return deriveSeed(base, c.attempt)
}

// deriveSeed maps (seed, attempt) onto a retry seed. Attempt 0 is the
// identity; later attempts mix the attempt number through a SplitMix64
// round so nearby seeds do not collide.
func deriveSeed(seed int64, attempt int) int64 {
	if attempt == 0 {
		return seed
	}
	z := uint64(seed) + uint64(attempt)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// sweepEnv holds a sweep's settings, constant while it runs: the Set*
// functions below write the package's copy, and a sweep —
// supervisedMapMeta, Supervise, or a scenario built outside any cell —
// copies it once under one lock (currentEnv) and hands the copy to every
// cell. So a Set* call made while a sweep is running applies from the
// next sweep; no caller does that (slowccsim sets everything before its
// first Run, the benchmark brackets each pass).
type sweepEnv struct {
	pol      CellPolicy
	budget   *sim.Budget
	fault    *faults.Config
	timeline *obs.Timeline
	sink     obs.SweepSink
	logger   *slog.Logger
	// sweepT0 is the wall-clock origin of timeline and progress stamps.
	sweepT0 time.Time
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
}{env: sweepEnv{pol: CellPolicy{Retries: 1}}}

// currentEnv snapshots the settings for one sweep.
func currentEnv() sweepEnv {
	supervision.mu.Lock()
	defer supervision.mu.Unlock()
	return supervision.env
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

// SetSweepPolicy installs the cell policy used by supervised sweeps and
// Supervise, returning the previous one so tests can restore it.
func SetSweepPolicy(p CellPolicy) (prev CellPolicy) {
	setEnv(func(env *sweepEnv) { prev, env.pol = env.pol, p })
	return prev
}

// SweepPolicy returns the current cell policy.
func SweepPolicy() CellPolicy { return currentEnv().pol }

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
// to remove it. Returns the previous budget.
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

// SetSweepTimeline installs a timeline that supervised sweeps emit
// per-cell telemetry spans into — queued time, one span per attempt
// (running or retry), and a degraded instant when a cell exhausts its
// attempts — or nil to remove it. Timestamps are wall-clock
// microseconds since this call, and each running span lands on the
// lane of the worker goroutine that executed it, so a sweep becomes
// one inspectable trace alongside any packet journeys. Returns the
// previous timeline.
func SetSweepTimeline(tl *obs.Timeline) (prev *obs.Timeline) {
	setEnv(func(env *sweepEnv) {
		prev, env.timeline = env.timeline, tl
		env.sweepT0 = time.Now()
	})
	return prev
}

// SetSweepProgress installs a live progress sink (export.Progress, or
// anything else implementing obs.SweepSink): supervised sweeps emit one
// SweepEvent per cell transition — the SSE mirror of the timeline spans
// — and, for every successfully finished cell, an obs.CellStats
// snapshot of the counters, histograms, and stream digest of each
// engine the cell constructed. Snapshots are taken on the worker
// goroutine after the job returns, so the sink never observes a live
// engine. nil removes the sink; returns the previous one.
func SetSweepProgress(sink obs.SweepSink) (prev obs.SweepSink) {
	setEnv(func(env *sweepEnv) {
		prev, env.sink = env.sink, sink
		if env.sweepT0.IsZero() {
			env.sweepT0 = time.Now()
		}
	})
	return prev
}

// SetSweepLogger installs a structured logger for supervised cells: one
// record per attempt (cell, attempt, worker, outcome, duration, halt
// reason) at Info, degraded cells at Warn. Callers attach run-scoped
// attributes — slowccsim adds the run-manifest digest via
// logger.With("run", digest) — so every record of a sweep carries its
// provenance. nil removes the logger; returns the previous one.
func SetSweepLogger(l *slog.Logger) (prev *slog.Logger) {
	setEnv(func(env *sweepEnv) { prev, env.logger = env.logger, l })
	return prev
}

// Sweep-telemetry lane layout. Workers share the sweep process (pid
// sweepWorkersPid, one thread per worker goroutine); queued spans get
// one row per cell in their own process so overlapping waits stay
// readable. Journey exports start at pid 1 and count up by hop, so the
// queue lane sits far above any plausible hop count.
const (
	sweepWorkersPid = 0
	sweepQueuePid   = 1000
)

// sweepSince converts a wall-clock instant into timeline microseconds.
func sweepSince(t0 time.Time) float64 {
	return float64(time.Since(t0)) / float64(time.Microsecond)
}

// Supervise runs job as one supervised sweep cell under the current
// policy: panics are recovered into a RunError with their stack, a
// deadline abandons the attempt, and each retry hands the job a Cell
// whose Seed derives a fresh seed. On
// success the error is nil; callers that are not part of a sweep get
// the error directly and nothing is recorded in SweepErrors.
func Supervise[T any](index int, job func(c *Cell) T) (T, *RunError) {
	env := currentEnv()
	v, _, _, rerr := superviseCell(&env, index, 0, job)
	return v, rerr
}

// superviseCell runs one cell to completion. On success it additionally
// returns the cell's telemetry snapshot and the number of attempts
// spent, which the keyed sweep path commits to the result store.
func superviseCell[T any](env *sweepEnv, index, worker int, job func(c *Cell) T) (T, obs.CellStats, int, *RunError) {
	pol := env.pol
	attempts := pol.Retries + 1
	if attempts < 1 {
		attempts = 1
	}
	tl, sink, logger, t0 := env.timeline, env.sink, env.logger, env.sweepT0
	if tl != nil {
		// The cell waited in the feed queue from sweep start until this
		// worker picked it up; give that wait its own row so slow-to-start
		// cells are visible at a glance.
		wait := sweepSince(t0)
		tl.ProcessName(sweepQueuePid, "sweep queue")
		tl.ThreadName(sweepQueuePid, index, fmt.Sprintf("cell %d", index))
		tl.Span("queued", fmt.Sprintf("cell %d queued", index), sweepQueuePid, index, 0, wait, nil)
		tl.ProcessName(sweepWorkersPid, "sweep workers")
		tl.ThreadName(sweepWorkersPid, worker, fmt.Sprintf("worker %d", worker))
	}
	if sink != nil {
		sink.SweepEvent(obs.SweepEvent{Kind: obs.SweepQueued, Cell: index, Worker: worker, AtMS: msSince(t0)})
	}
	var last *RunError
	for a := 0; a < attempts; a++ {
		if wait := retryBackoff(pol, index, a); wait > 0 {
			// Virtual attempt scheduling only: the wait happens on this
			// worker's wall clock, outside any engine, so the retry's
			// derived-seed run is bit-identical with or without backoff.
			time.Sleep(wait)
		}
		start := 0.0
		if tl != nil {
			start = sweepSince(t0)
		}
		if sink != nil {
			kind := obs.SweepRunning
			if a > 0 {
				kind = obs.SweepRetry
			}
			sink.SweepEvent(obs.SweepEvent{Kind: kind, Cell: index, Attempt: a, Worker: worker, AtMS: msSince(t0)})
		}
		wall0 := time.Now()
		v, cell, rerr := runAttempt(env, index, a, job)
		dur := time.Since(wall0)
		if tl != nil {
			cat, name := "running", fmt.Sprintf("cell %d", index)
			if a > 0 {
				cat, name = "retry", fmt.Sprintf("cell %d retry %d", index, a)
			}
			args := map[string]any{"index": index, "attempt": a, "outcome": attemptOutcome(rerr)}
			tl.Span(cat, name, sweepWorkersPid, worker, start, sweepSince(t0)-start, args)
		}
		if rerr == nil {
			st := cellStats(index, cell)
			if logger != nil {
				logger.LogAttrs(context.Background(), slog.LevelInfo, "sweep cell done",
					slog.Int("cell", index), slog.Int("attempt", a), slog.Int("worker", worker),
					slog.String("outcome", "ok"), slog.Duration("dur", dur), slog.String("halt", st.Halt))
			}
			if sink != nil {
				sink.CellStats(st)
				sink.SweepEvent(obs.SweepEvent{
					Kind: obs.SweepDone, Cell: index, Attempt: a, Worker: worker,
					Outcome: "ok", Halt: st.Halt,
					AtMS: msSince(t0), DurMS: float64(dur) / float64(time.Millisecond),
				})
			}
			return v, st, a + 1, nil
		}
		if cell != nil && rerr.Halt == "" {
			// The attempt failed but the job returned (a panic, not an
			// abandoned deadline), so its engines' sticky halt reasons are
			// safely harvestable into the degraded report.
			rerr.Halt = strings.Join(cellStats(index, cell).Halts, "; ")
		}
		if logger != nil {
			logger.LogAttrs(context.Background(), slog.LevelInfo, "sweep cell attempt failed",
				slog.Int("cell", index), slog.Int("attempt", a), slog.Int("worker", worker),
				slog.String("outcome", attemptOutcome(rerr)), slog.Duration("dur", dur))
		}
		last = rerr
	}
	last.Attempts = attempts
	if tl != nil {
		tl.Instant("degraded", fmt.Sprintf("cell %d degraded", index), sweepWorkersPid, worker, sweepSince(t0),
			map[string]any{"index": index, "attempts": attempts})
	}
	if logger != nil {
		logger.LogAttrs(context.Background(), slog.LevelWarn, "sweep cell degraded",
			slog.Int("cell", index), slog.Int("attempts", attempts), slog.Int("worker", worker),
			slog.String("outcome", attemptOutcome(last)))
	}
	if sink != nil {
		sink.SweepEvent(obs.SweepEvent{
			Kind: obs.SweepDegraded, Cell: index, Attempt: attempts - 1, Worker: worker,
			Outcome: attemptOutcome(last), AtMS: msSince(t0),
		})
	}
	var zero T
	return zero, obs.CellStats{}, attempts, last
}

// msSince converts a wall-clock instant into milliseconds-ago.
func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

// cellStats snapshots a finished cell's telemetry: summed counters,
// every histogram by value, the XOR-combined stream digest of the
// engines that kept one (Digest 0 over DigestEvents 0 when none did),
// and the engines' budget halt reasons — Halt keeps the historical
// first-engine value, Halts carries every engine's sticky reason so a
// multi-engine cell's report names them all. Safe because the job has
// returned — nothing else writes to these engines anymore.
func cellStats(index int, c *Cell) obs.CellStats {
	st := obs.CellStats{Cell: index}
	if c == nil || len(c.obsv) == 0 {
		return st
	}
	st.Counters = map[string]int64{}
	for _, o := range c.obsv {
		for k, v := range o.reg.Snapshot() {
			st.Counters[k] += v
		}
		st.Hists = append(st.Hists, o.reg.SnapshotHistograms()...)
		if o.dig != nil {
			st.Digest ^= o.dig.Sum()
			st.DigestEvents += o.dig.Events()
		}
		st.Events += o.eng.Steps()
		if h := o.eng.Halted(); h != nil && h.Cause != sim.HaltDone {
			st.Halts = append(st.Halts, h.String())
			if st.Halt == "" {
				st.Halt = h.String()
			}
		}
	}
	return st
}

// attemptOutcome labels a finished attempt for timeline args.
func attemptOutcome(rerr *RunError) string {
	switch {
	case rerr == nil:
		return "ok"
	case rerr.Deadline:
		return "deadline"
	default:
		return "panic"
	}
}

// runAttempt executes one attempt with panic recovery; with a deadline
// it runs on its own goroutine so a hung cell can be abandoned. The
// attempt's Cell is returned alongside the value so the supervisor can
// harvest per-cell telemetry — but only consulted on success, when the
// job has provably returned and no goroutine still runs it. Each
// attempt runs under pprof labels (slowcc_cell, slowcc_attempt), so CPU
// profiles scraped from /debug/pprof attribute samples to sweep cells.
func runAttempt[T any](env *sweepEnv, index, attempt int, job func(c *Cell) T) (T, *Cell, *RunError) {
	c := &Cell{index: index, attempt: attempt, env: env}
	type outcome struct {
		v    T
		rerr *RunError
	}
	res := make(chan outcome, 1) // buffered: an abandoned attempt still completes and is collected
	labels := pprof.Labels("slowcc_cell", fmt.Sprint(index), "slowcc_attempt", fmt.Sprint(attempt))
	run := func() {
		var o outcome
		defer func() {
			if v := recover(); v != nil {
				o = outcome{rerr: &RunError{Index: index, Value: v, Stack: string(debug.Stack())}}
			}
			res <- o
		}()
		pprof.Do(context.Background(), labels, func(context.Context) {
			o.v = job(c)
		})
	}
	deadline := env.pol.Deadline
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
		re := &RunError{Index: index, Deadline: true}
		// Grace window: when the deadline pairs with an engine wall
		// budget (the documented pairing), the abandoned run halts just
		// past the deadline — wait briefly so its sticky sim.HaltReason
		// lands in the degraded report. The classification stands either
		// way; only consult the Cell if the job provably returned.
		select {
		case o := <-res:
			if o.rerr == nil {
				re.Halt = strings.Join(cellStats(index, c).Halts, "; ")
			}
		case <-time.After(deadlineGrace):
		}
		var zero T
		return zero, nil, re
	}
}

// deadlineGrace bounds how long a deadline-exceeded attempt is given to
// actually halt (via its wall budget) before being fully abandoned.
const deadlineGrace = 250 * time.Millisecond

// supervisedMap is parallelMapIndexed with per-cell supervision: a cell whose
// every attempt dies yields its zero value and a RunError in
// SweepErrors (recorded in index order, deterministically) instead of
// aborting the sweep. Figures 3-19 run their sweeps through it, so one
// poisoned cell degrades one table entry rather than the whole run.
// When a result store and sweep scope are installed (and the result
// type round-trips JSON losslessly), cells are additionally keyed into
// the store — see storekey.go.
func supervisedMap[T any](n int, fn func(c *Cell) T) []T {
	return supervisedMapMeta(n, scopeMeta[T](n), fn)
}
