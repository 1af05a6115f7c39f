package sim

import (
	"fmt"
	"time"
)

// Budget bounds a run so a pathological scenario halts with a reason
// instead of spinning forever. Zero fields are unlimited.
type Budget struct {
	// MaxEvents bounds the number of events executed under this budget.
	MaxEvents uint64
	// MaxWall bounds elapsed wall-clock time, checked every 2048 events
	// so the hot loop pays nothing between checks. A wall halt is
	// inherently non-reproducible; it exists for supervision (hung-cell
	// deadlines), not for modeling.
	MaxWall time.Duration
	// LivelockEvents arms the zero-progress watchdog: executing this many
	// consecutive events without the clock advancing is a livelock (an
	// event chain rescheduling itself at now forever), and the engine
	// panics, as scheduling validation does.
	LivelockEvents uint64
}

// HaltCause says why a bounded run stopped.
type HaltCause uint8

const (
	// HaltDone is normal completion: the event heap drained (or the
	// RunUntil horizon was reached) with budget to spare.
	HaltDone HaltCause = iota
	// HaltEvents means MaxEvents events executed.
	HaltEvents
	// HaltWall means MaxWall wall-clock time elapsed.
	HaltWall
)

// String returns the flag-style name of the cause.
func (c HaltCause) String() string {
	switch c {
	case HaltDone:
		return "done"
	case HaltEvents:
		return "max-events"
	case HaltWall:
		return "max-wall"
	}
	return fmt.Sprintf("HaltCause(%d)", uint8(c))
}

// HaltReason reports how far a bounded run got and what stopped it.
type HaltReason struct {
	Cause HaltCause
	// Events is the number of events executed under the budget.
	Events uint64
	// SimTime is the simulated clock when the run stopped.
	SimTime Time
	// Wall is the elapsed wall-clock time of the bounded run.
	Wall time.Duration
}

func (h HaltReason) String() string {
	return fmt.Sprintf("%s after %d events, t=%.6g, %v wall", h.Cause, h.Events, h.SimTime, h.Wall)
}

// budgetState is the live accounting for an installed Budget.
type budgetState struct {
	b         Budget
	start     uint64 // nsteps when the budget was installed
	wallStart time.Time
	stall     uint64      // consecutive events with no clock advance
	halted    *HaltReason // set when the budget stopped a run
}

// SetBudget installs b for subsequent Run/RunUntil calls, with fresh
// event and wall-clock accounting starting now; nil removes the budget.
// Drivers that loop over RunUntil install one budget up front and check
// Halted after each leg — a budget that has halted once halts every
// later leg immediately, so a bounded scenario cannot creep past its
// limits in installments.
func (e *Engine) SetBudget(b *Budget) {
	if b == nil {
		e.budget = nil
		return
	}
	e.budget = &budgetState{b: *b, start: e.nsteps, wallStart: time.Now()}
}

// Halted returns the reason the installed budget stopped a run, or nil
// if no budget is installed or it has not been exceeded.
func (e *Engine) Halted() *HaltReason {
	if e.budget == nil {
		return nil
	}
	return e.budget.halted
}

// runBudgeted is the budget-aware event loop: it executes events with
// timestamps <= horizon and reports whether it completed normally
// (false means the budget halted it and recorded the reason).
func (e *Engine) runBudgeted(horizon Time) bool {
	bs := e.budget
	if bs.halted != nil {
		// A previous leg already exhausted the budget.
		bs.halt(e, bs.halted.Cause)
		return false
	}
	for {
		head := e.peekMin()
		if head == nil || head.at > horizon {
			return true
		}
		if bs.b.MaxEvents > 0 && e.nsteps-bs.start >= bs.b.MaxEvents {
			bs.halt(e, HaltEvents)
			return false
		}
		if bs.b.MaxWall > 0 && (e.nsteps-bs.start)&2047 == 0 &&
			time.Since(bs.wallStart) >= bs.b.MaxWall {
			bs.halt(e, HaltWall)
			return false
		}
		prev := e.now
		e.takeMin(head)
		e.exec(head)
		if bs.b.LivelockEvents > 0 {
			if e.now > prev {
				bs.stall = 0
			} else if bs.stall++; bs.stall >= bs.b.LivelockEvents {
				panic(fmt.Sprintf("sim: livelock: %d consecutive events at t=%v without the clock advancing", bs.stall, e.now))
			}
		}
	}
}

// halt records why and where the budget stopped the run.
func (bs *budgetState) halt(e *Engine, c HaltCause) {
	bs.halted = &HaltReason{Cause: c, Events: e.nsteps - bs.start, SimTime: e.now, Wall: time.Since(bs.wallStart)}
}
