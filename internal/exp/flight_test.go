package exp

import (
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"slowcc/internal/topology"
)

// TestEnableFlightDumpWiresAuditedScenarios checks that with audit
// flight dumps enabled, every audited scenario carries a flight recorder
// over its forward bottleneck and an invariant violation leaves a dump
// with the packet-level lead-up on disk.
func TestEnableFlightDumpWiresAuditedScenarios(t *testing.T) {
	dir := t.TempDir()
	defer auditMode(auditMode(true, dir))

	eng, d := noCell.newScenario(1, topology.Config{Rate: 10e6})
	a := d.Cfg.Audit
	if a == nil {
		t.Fatal("audit mode off: TestMain should have enabled it")
	}
	if a.Flight == nil || a.DumpPath == "" {
		t.Fatal("the audit flight directory did not wire a recorder into the scenario")
	}

	// Real traffic fills the ring through the bottleneck tap.
	f := TCPAlgo(0.5).Make(eng, d, 1)
	eng.At(0, f.Sender.Start)
	eng.RunUntil(2)
	if a.Flight.Total() == 0 {
		t.Fatal("flight recorder saw no bottleneck traffic")
	}

	// Induce a violation directly on the auditor. Detach the shared
	// collector first: this breach is synthetic and must not count
	// against the package-wide zero-violations check in TestMain.
	a.Report = nil
	a.OnEvent(5, 4, 1) // event time running backward: clock violation

	blob, err := os.ReadFile(a.DumpPath)
	if err != nil {
		t.Fatalf("violation did not produce a flight dump: %v", err)
	}
	out := string(blob)
	if !strings.Contains(out, "reason: invariant violation:") {
		t.Fatalf("dump header wrong:\n%.200s", out)
	}
	if !strings.Contains(out, "\tpkt\t") {
		t.Fatal("dump holds no packet events")
	}
	if !strings.Contains(out, "\tnote\tviolation ") {
		t.Fatal("dump holds no violation note")
	}
}

// TestFlightDumpOffByDefault checks the disabled path stays bare: with
// no dump directory configured, audited scenarios carry no recorder and
// no dump path.
func TestFlightDumpOffByDefault(t *testing.T) {
	defer auditMode(auditMode(true, ""))
	_, d := noCell.newScenario(1, topology.Config{Rate: 10e6})
	a := d.Cfg.Audit
	if a == nil {
		t.Fatal("audit mode off: TestMain should have enabled it")
	}
	if a.Flight != nil || a.DumpPath != "" {
		t.Fatal("flight recorder wired without an audit flight directory")
	}
}

// TestAuditedScenariosAreCollectable pins that audit mode keeps no
// reference to the scenarios it audited: a long audited sweep must not
// retain every engine, topology and packet pool it ever built.
func TestAuditedScenariosAreCollectable(t *testing.T) {
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
