package sim

import "testing"

// Steady-state event turnover — a pre-bound callback rescheduling itself
// through AtFunc — must not allocate once the free list is warm. This is
// the engine's share of the "allocation-free simulator core" guarantee:
// regressions here multiply across every packet of every figure sweep.
func TestAllocsSteadyStateAtFunc(t *testing.T) {
	e := New(1)
	var fn func(any)
	fn = func(arg any) {
		e.AfterFunc(0.001, fn, arg)
	}
	e.AfterFunc(0.001, fn, nil)
	e.RunUntil(1) // warm the timer free list
	var horizon Time = 1
	avg := testing.AllocsPerRun(100, func() {
		horizon += 0.01
		e.RunUntil(horizon) // ~10 events per run
	})
	if avg != 0 {
		t.Fatalf("steady-state AtFunc turnover allocates %v times per run, want 0", avg)
	}
}

// A handle timer re-armed in place with ResetAfter must also be
// allocation-free: this is the pattern every sender's RTO/pacing timer
// uses.
func TestAllocsResetAfter(t *testing.T) {
	e := New(1)
	var tm *Timer
	var fn func()
	fn = func() {
		tm = e.ResetAfter(tm, 0.001, fn)
	}
	tm = e.ResetAfter(nil, 0.001, fn)
	e.RunUntil(1)
	var horizon Time = 1
	avg := testing.AllocsPerRun(100, func() {
		horizon += 0.01
		e.RunUntil(horizon)
	})
	if avg != 0 {
		t.Fatalf("ResetAfter re-arm allocates %v times per run, want 0", avg)
	}
}

// SetAudit(nil) — the default — must cost nothing: no allocations on the
// schedule or execute paths beyond the timers themselves.
func TestAllocsAuditDisabled(t *testing.T) {
	e := New(1)
	e.SetAudit(nil)
	var fn func(any)
	fn = func(arg any) { e.AfterFunc(0.001, fn, arg) }
	e.AfterFunc(0.001, fn, nil)
	e.RunUntil(1)
	var horizon Time = 1
	avg := testing.AllocsPerRun(100, func() {
		horizon += 0.01
		e.RunUntil(horizon)
	})
	if avg != 0 {
		t.Fatalf("disabled audit hook allocates %v times per run, want 0", avg)
	}
}

// Boxing a pointer argument through AtFunc's `any` parameter must not
// allocate (pointers fit an interface word): if this regresses, every
// packet delivery allocates again.
func TestAllocsAtFuncPointerArg(t *testing.T) {
	type payload struct{ n int }
	e := New(1)
	p := &payload{}
	fn := func(arg any) { _ = arg.(*payload) }
	e.AtFunc(0.5, fn, p) // warm free list
	e.RunUntil(1)
	avg := testing.AllocsPerRun(100, func() {
		e.AtFunc(e.Now(), fn, p)
		e.RunUntil(e.Now())
	})
	if avg != 0 {
		t.Fatalf("AtFunc with pointer arg allocates %v times per run, want 0", avg)
	}
}
