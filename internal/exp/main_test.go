package exp

import (
	"fmt"
	"os"
	"testing"
)

// noCell is the cell of a scenario a test builds outside any supervised
// sweep: Cell's constructors are nil-safe.
var noCell *Cell

// newSweep returns a Sweep with no settings for one test; the test sets
// what it needs on it. At the test's end it fails the test on every
// degraded cell the Sweep recorded that the test did not take with
// Errors, as TestMain does for the package default: a supervised sweep
// degrades a poisoned cell instead of failing, so a quietly degraded
// run would otherwise pass.
func newSweep(t testing.TB) *Sweep {
	t.Helper()
	sw := &Sweep{}
	t.Cleanup(func() {
		for _, e := range sw.Errors() {
			t.Errorf("unexpected degraded sweep cell: %v", e)
		}
	})
	return sw
}

// auditMode sets whether scenarios built from now on run under the
// invariant auditor and where audited scenarios dump their bottleneck's
// trace ring on a violation ("" = nowhere), returning the previous
// setting. TestMain turns auditing on once; only a serial test may
// change it for its own span, and must restore it.
func auditMode(on bool, flightDir string) (prevOn bool, prevDir string) {
	supervision.mu.Lock()
	defer supervision.mu.Unlock()
	prevOn, prevDir = supervision.audit, supervision.auditFlightDir
	supervision.audit, supervision.auditFlightDir = on, flightDir
	return prevOn, prevDir
}

// TestMain runs the entire exp package — the scaled-down figure suite,
// the conservation tests, and the soak — with the invariant auditing
// layer enabled, so every scenario a driver constructs is checked for
// packet conservation, clock sanity, and flow accounting as it runs. A
// suite that passes its own assertions but breached any invariant still
// fails here. Benchmarks (which live in the root package) construct
// scenarios with auditing off and are unaffected.
// Audited scenarios additionally keep a trace ring over their
// bottleneck: when a violation does fire, the packet-level lead-up is
// dumped under flightDir instead of being lost with the process.
func TestMain(m *testing.M) {
	flightDir, dirErr := os.MkdirTemp("", "slowcc-flight-")
	auditMode(true, flightDir) // "" when the directory could not be made
	code := m.Run()
	// A test's own Sweep is checked by newSweep; a degraded cell of the
	// package default, which only the bench surface runs, fails the
	// suite here.
	if errs := defaultSweep.Errors(); len(errs) > 0 {
		fmt.Fprintf(os.Stderr, "supervise: %d unexpected degraded sweep cell(s):\n", len(errs))
		for _, e := range errs {
			fmt.Fprintf(os.Stderr, "  %v\n", e)
		}
		if code == 0 {
			code = 1
		}
	}
	supervision.mu.Lock()
	total, vs := supervision.auditTotal, supervision.violations
	supervision.mu.Unlock()
	if total > 0 {
		fmt.Fprintf(os.Stderr, "invariant: %d violation(s) during the exp suite:\n", total)
		for _, v := range vs {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
		if dirErr == nil {
			fmt.Fprintf(os.Stderr, "flight dumps (if any): %s\n", flightDir)
		}
		if code == 0 {
			code = 1
		}
	} else if dirErr == nil {
		os.RemoveAll(flightDir)
	}
	os.Exit(code)
}
