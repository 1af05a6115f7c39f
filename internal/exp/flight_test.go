package exp

import (
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"slowcc/internal/invariant"
	"slowcc/internal/topology"
	"slowcc/internal/trace"
)

// inducedViolation makes a's clock check fire once, then takes the
// synthetic breach back out of the package-wide collector so it does
// not count against TestMain's zero-violations check.
func inducedViolation(t *testing.T, a *invariant.Auditor) {
	t.Helper()
	supervision.mu.Lock()
	total, kept := supervision.auditTotal, len(supervision.violations)
	supervision.mu.Unlock()
	a.OnEvent(5, 4, 1) // event time running backward: clock violation
	supervision.mu.Lock()
	defer supervision.mu.Unlock()
	if supervision.auditTotal != total+1 {
		t.Fatalf("the violation reached the collector %d times, want once", supervision.auditTotal-total)
	}
	supervision.auditTotal, supervision.violations = total, supervision.violations[:kept]
}

// TestEnableFlightDumpWiresAuditedScenarios checks that with an audit
// dump directory set, every audited scenario keeps a trace ring over its
// forward bottleneck and an invariant violation leaves the packet-level
// lead-up on disk as a trace TSV.
func TestEnableFlightDumpWiresAuditedScenarios(t *testing.T) {
	dir := t.TempDir()
	defer auditMode(auditMode(true, dir))

	eng, d := noCell.newScenario(1, topology.Config{Rate: 10e6})
	a := d.Cfg.Audit
	if a == nil {
		t.Fatal("audit mode off: TestMain should have enabled it")
	}
	flow := TCPAlgo(0.5).Make(eng, d, 1)
	eng.At(0, flow.Sender.Start)
	eng.RunUntil(2)

	inducedViolation(t, a)
	dumps, _ := filepath.Glob(filepath.Join(dir, "flight-*.tsv"))
	if len(dumps) != 1 {
		t.Fatalf("violation left %d dumps, want 1", len(dumps))
	}
	f, err := os.Open(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := trace.ReadTSV(f)
	if err != nil {
		t.Fatalf("dump is not a trace TSV: %v", err)
	}
	if len(evs) == 0 || len(evs) > flightRingSize {
		t.Fatalf("dump holds %d bottleneck events, want 1..%d", len(evs), flightRingSize)
	}
}

// TestFlightDumpOffByDefault checks the disabled path: with no dump
// directory, a violation still reaches the collector and writes nothing
// (a dump path built from an empty directory would land in the working
// directory).
func TestFlightDumpOffByDefault(t *testing.T) {
	defer auditMode(auditMode(true, ""))
	wd := t.TempDir()
	t.Chdir(wd)
	_, d := noCell.newScenario(1, topology.Config{Rate: 10e6})
	a := d.Cfg.Audit
	if a == nil {
		t.Fatal("audit mode off: TestMain should have enabled it")
	}
	inducedViolation(t, a)
	if ents, _ := os.ReadDir(wd); len(ents) != 0 {
		t.Fatalf("violation without a dump directory wrote %s", ents[0].Name())
	}
}

// TestAuditedScenariosAreCollectable pins that audit mode keeps no
// reference to the scenarios it audited: a long audited sweep must not
// retain every engine, topology and packet pool it ever built.
func TestAuditedScenariosAreCollectable(t *testing.T) {
	t.Parallel()
	const n = 8
	var freed atomic.Int32
	for i := 0; i < n; i++ {
		eng, d := noCell.newScenario(int64(i+1), topology.Config{Rate: 10e6})
		if d.Cfg.Audit == nil {
			t.Fatal("audit mode off: TestMain should have enabled it")
		}
		startAll(d, []Flow{TCPAlgo(0.5).Make(eng, d, 1)}, 0)
		// The engine sits in reference cycles (links, timers, auditor), and
		// a finalizer on a member of a cycle never runs. Hang a leaf off
		// the engine instead — held only by a pending event — and watch
		// that: it is collectable exactly when the engine is.
		leaf := new([64]byte)
		runtime.SetFinalizer(leaf, func(*[64]byte) { freed.Add(1) })
		eng.At(1e9, func() { leaf[0]++ })
		eng.RunUntil(1)
	}
	// Finalizers run on their own goroutine after a collection finds the
	// object unreachable; a few cycles give it time to drain.
	for i := 0; i < 50 && freed.Load() < n; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got < n {
		t.Fatalf("%d of %d audited scenarios were collected; something still holds the rest", got, n)
	}
}

// Auditing is the package's switch, not a setting a test's Sweep could
// leave out: a cell of a fresh test Sweep builds its scenario audited.
func TestHelperSweepScenariosAreAudited(t *testing.T) {
	t.Parallel()
	_, rerr := supervise(newSweep(t), 0, func(c *Cell) int {
		if _, d := c.newScenario(1, topology.Config{Rate: 10e6}); d.Cfg.Audit == nil {
			t.Error("a scenario built under a test's Sweep runs unaudited")
		}
		return 0
	})
	if rerr != nil {
		t.Fatal(rerr)
	}
}
