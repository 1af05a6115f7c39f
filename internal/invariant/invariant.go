// Package invariant is an opt-in auditing layer that verifies, during
// any simulation run, the accounting laws the paper's figures depend on:
//
//   - Packet conservation (the self-clocking argument of Section 4):
//     every packet offered to a link is accounted exactly once as
//     dropped, delivered, queued, or in transmission, checked at every
//     netem.TapSettled point of a watched link.
//   - RED drop splitting: EarlyDrops + ForcedDrops == Stats.Drops on
//     RED links, so the early/forced decomposition reported alongside
//     Figures 3-5 and 13-16 always sums to the real drop count.
//   - Clock sanity: the engine clock never moves backward, every event
//     timestamp is finite, and same-instant events fire in FIFO
//     (sequence) order, checked via sim.AuditHook.
//   - Flow accounting: a receiver can never have received more bytes
//     than its sender transmitted, and declared per-algorithm values
//     (cwnd, send rate) stay finite and inside their bounds, checked on
//     a simulated-time cadence.
//
// Auditing is wired per engine (sim.AuditHook) and per link (a
// netem.Tap); the micro-benchmarks in internal/sim and internal/netem
// run with it disabled and bound what an unwatched event costs.
package invariant

import (
	"fmt"

	"slowcc/internal/netem"
	"slowcc/internal/sim"
)

// Violation is one detected invariant breach.
type Violation struct {
	// Time is the simulated time at which the breach was observed.
	Time sim.Time
	// Kind classifies the breached invariant: "conservation",
	// "red-split", "clock", "fifo", "flow", or "bound".
	Kind string
	// Name identifies the audited subject (link or flow label).
	Name string
	// Detail is a human-readable account of the breach.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%.6f %s[%s]: %s", v.Time, v.Kind, v.Name, v.Detail)
}

// Auditor collects invariant violations for one engine. Create it with
// New, register subjects with the Watch methods, and read results with
// Violations or Err after (or during) the run. An Auditor is not safe
// for concurrent use; like the engine it audits, it belongs to a single
// simulation goroutine.
type Auditor struct {
	// Interval is the simulated-time cadence of the periodic flow and
	// bound checks, driven from the engine's own event stream (no extra
	// timers are scheduled, so auditing never keeps an engine alive).
	// Zero means the 0.5s default.
	Interval sim.Time
	// Report, when non-nil, is additionally invoked for every violation
	// (including ones beyond maxViolations).
	Report func(Violation)

	// Total counts every violation observed, recorded or not.
	Total int64

	eng        *sim.Engine
	violations []Violation
	flows      []flowWatch
	values     []valueWatch

	lastCheck sim.Time
	lastAt    sim.Time
	lastSeq   uint64
	haveEvent bool
}

// maxViolations caps the recorded slice so a systemic breach cannot
// exhaust memory; further violations only increment Total.
const maxViolations = 100

type flowWatch struct {
	name       string
	sent, recv func() int64
}

type valueWatch struct {
	name   string
	get    func() float64
	lo, hi float64
}

// New returns an auditor installed as eng's audit hook. The periodic
// checks piggyback on the engine's event stream, so no timers are
// created and the engine still drains normally under Run.
func New(eng *sim.Engine) *Auditor {
	a := &Auditor{eng: eng}
	eng.SetAudit(a)
	return a
}

// WatchLink taps l for conservation auditing under the given name.
func (a *Auditor) WatchLink(name string, l *netem.Link) {
	l.AddTap(func(l *netem.Link, op netem.TapOp, _ *netem.Packet, _ sim.Time) {
		if op == netem.TapSettled {
			a.auditLink(name, l)
		}
	})
}

// WatchFlow registers a sender/receiver byte-counter pair. The periodic
// check asserts recv() <= sent(): every byte received must have been
// transmitted first.
func (a *Auditor) WatchFlow(name string, sent, recv func() int64) {
	a.flows = append(a.flows, flowWatch{name: name, sent: sent, recv: recv})
}

// WatchValue registers a scalar (cwnd, send rate, ...) with declared
// bounds. The periodic check asserts lo <= get() <= hi, which also
// rejects NaN and infinities.
func (a *Auditor) WatchValue(name string, get func() float64, lo, hi float64) {
	a.values = append(a.values, valueWatch{name: name, get: get, lo: lo, hi: hi})
}

// Violations returns the recorded violations (capped at maxViolations).
func (a *Auditor) Violations() []Violation { return a.violations }

// Err returns nil when no invariant was breached, and an error
// summarizing the first violation otherwise.
func (a *Auditor) Err() error {
	if a.Total == 0 {
		return nil
	}
	return fmt.Errorf("invariant: %d violation(s), first: %s", a.Total, a.violations[0])
}

func (a *Auditor) record(kind, name, format string, args ...any) {
	v := Violation{Time: a.eng.Now(), Kind: kind, Name: name, Detail: fmt.Sprintf(format, args...)}
	a.Total++
	if len(a.violations) < maxViolations {
		a.violations = append(a.violations, v)
	}
	if a.Report != nil {
		a.Report(v)
	}
}

// auditLink asserts the conservation law and, on RED links, the
// early/forced drop split.
func (a *Auditor) auditLink(name string, l *netem.Link) {
	s := l.Stats
	inTx := int64(0)
	if l.Busy() {
		inTx = 1
	}
	if diff := s.Arrivals - s.Drops - s.Departures - int64(l.Q.Len()) - inTx; diff != 0 {
		a.record("conservation", name,
			"arrivals=%d != drops=%d + departures=%d + queued=%d + in-tx=%d (off by %d)",
			s.Arrivals, s.Drops, s.Departures, l.Q.Len(), inTx, diff)
	}
	if r, ok := l.Q.(*netem.RED); ok {
		// Down-link drops refuse the packet before the qdisc sees it, so
		// they are the one slice of link drops RED cannot decompose.
		if r.EarlyDrops+r.ForcedDrops != s.Drops-s.DownDrops {
			a.record("red-split", name,
				"early=%d + forced=%d != link drops=%d - down drops=%d",
				r.EarlyDrops, r.ForcedDrops, s.Drops, s.DownDrops)
		}
	}
}

// OnSchedule implements sim.AuditHook. Engine.At already panics on
// non-finite or past timestamps, so this is defense in depth against a
// future regression of that guard.
func (a *Auditor) OnSchedule(now, at sim.Time) {
	if !(at >= now) { // also catches NaN
		a.record("clock", "engine", "scheduled event at %v with clock at %v", at, now)
	}
}

// OnEvent implements sim.AuditHook: it asserts the clock never runs
// backward, heap order delivers non-decreasing timestamps, same-instant
// events fire in FIFO sequence order, and — on the configured cadence —
// runs the registered flow and bound checks.
func (a *Auditor) OnEvent(prev, at sim.Time, seq uint64) {
	if !(at >= prev) {
		a.record("clock", "engine", "event at %v fired with clock at %v", at, prev)
	}
	if a.haveEvent {
		if at < a.lastAt {
			a.record("clock", "engine", "event order inverted: %v after %v", at, a.lastAt)
		} else if at == a.lastAt && seq <= a.lastSeq {
			a.record("fifo", "engine",
				"same-instant events out of order at t=%v: seq %d after %d", at, seq, a.lastSeq)
		}
	}
	a.lastAt, a.lastSeq, a.haveEvent = at, seq, true

	interval := a.Interval
	if interval == 0 {
		interval = 0.5
	}
	if at-a.lastCheck >= interval {
		a.lastCheck = at
		a.checkFlows()
	}
}

func (a *Auditor) checkFlows() {
	for _, f := range a.flows {
		sent, recv := f.sent(), f.recv()
		if recv > sent {
			a.record("flow", f.name, "received %d bytes but only %d were sent", recv, sent)
		}
		if sent < 0 || recv < 0 {
			a.record("flow", f.name, "negative counter: sent=%d recv=%d", sent, recv)
		}
	}
	for _, v := range a.values {
		got := v.get()
		if !(got >= v.lo && got <= v.hi) { // NaN fails both comparisons
			a.record("bound", v.name, "value %v outside [%v, %v]", got, v.lo, v.hi)
		}
	}
}
