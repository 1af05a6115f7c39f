package exp

import (
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"slowcc/internal/faults"
	"slowcc/internal/invariant"
	"slowcc/internal/obs"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

// Audit mode makes every scenario a figure driver constructs run under
// the internal/invariant auditing layer: packet conservation on every
// link, clock sanity on every event, and per-flow byte and bound checks.
// The exp tests enable it for the whole package (see TestMain), so the
// scaled-down figure suite cannot pass while any accounting invariant is
// broken; benchmarks and production runs leave it off and pay only a nil
// check per event. The collector is shared across engines because sweep
// drivers run scenarios concurrently via parallelMapIndexed.
var audit struct {
	mu         sync.Mutex
	enabled    bool
	flightDir  string // when non-empty, audited scenarios dump here
	flightSeq  atomic.Int64
	total      int64
	violations []invariant.Violation // capped at auditMaxRecorded
}

const auditMaxRecorded = 200

// flightRingSize bounds the per-scenario flight recorder: enough recent
// bottleneck events to see the lead-up to a violation, small enough
// that the audited figure suite's memory stays flat.
const flightRingSize = 512

// EnableAudit turns invariant auditing of figure-driver scenarios on or
// off. It affects scenarios constructed after the call.
func EnableAudit(on bool) {
	audit.mu.Lock()
	defer audit.mu.Unlock()
	audit.enabled = on
}

// EnableFlightDump makes every audited scenario keep a flight recorder
// over its forward bottleneck and dump it into dir (as
// flight-<n>.dump) when an invariant violation fires, so an audit
// failure in the figure suite leaves the packet-level lead-up on disk
// instead of only a counter. Empty dir disables it. Takes effect for
// scenarios constructed after the call; requires audit mode. Returns
// the previous directory so callers can restore it.
func EnableFlightDump(dir string) (prev string) {
	audit.mu.Lock()
	defer audit.mu.Unlock()
	prev = audit.flightDir
	audit.flightDir = dir
	return prev
}

// AuditViolations returns the number of invariant violations observed so
// far and a snapshot of the recorded ones.
func AuditViolations() (int64, []invariant.Violation) {
	audit.mu.Lock()
	defer audit.mu.Unlock()
	return audit.total, append([]invariant.Violation(nil), audit.violations...)
}

// ResetAudit clears the violation collector (test isolation).
func ResetAudit() {
	audit.mu.Lock()
	defer audit.mu.Unlock()
	audit.total = 0
	audit.violations = nil
}

func recordAuditViolation(v invariant.Violation) {
	audit.mu.Lock()
	defer audit.mu.Unlock()
	audit.total++
	if len(audit.violations) < auditMaxRecorded {
		audit.violations = append(audit.violations, v)
	}
}

// newScenario constructs the engine and dumbbell a figure driver runs
// on: buildScenario with the global fault configuration.
func (c *Cell) newScenario(seed int64, tc topology.Config) (*sim.Engine, *topology.Net) {
	return c.buildScenario(seed, tc, nil, nil, 0)
}

// buildScenario is the one place a figure or matrix scenario gets its
// engine and topology: the paper's dumbbell tc or, when chain is
// non-nil, that chain instead. c is the sweep cell the scenario runs
// under, nil outside supervised sweeps; it maps the base seed to this
// attempt's (Cell.Seed: the base itself on attempt 0 and under a nil
// cell) and that one seed drives the engine, the topology's queues and,
// unless the configuration names its own, the fault stream — so a driver
// that gets its scenario here cannot run a retry on the first attempt's
// seed. It applies the global run budget (the -max-events CLI path);
// attaches the fault configuration — explicit fc, else the global -fault
// one — to the forward link of hop faultHop, so multi-bottleneck
// scenarios pick which hop degrades; wires the invariant auditor through
// every link when audit mode is on; keeps at most one flight recorder
// over the first forward hop, which the auditor dumps on a violation and
// the supervisor dumps if the cell panics; and registers the topology
// with the cell's live-telemetry collector.
func (c *Cell) buildScenario(base int64, tc topology.Config, chain *topology.NetConfig, fc *faults.Config, faultHop int) (*sim.Engine, *topology.Net) {
	seed := c.Seed(base)
	eng := sim.New(seed)
	budget, fault, pol, collect, digest := scenarioGlobals()
	if budget != nil {
		eng.SetBudget(budget)
	}
	if fc == nil {
		fc = fault
	}
	var inj *faults.Injector
	if fc != nil && fc.Enabled() {
		cfg := *fc
		if cfg.Seed == 0 {
			cfg.Seed = seed // default the fault stream onto the attempt's seed
		}
		inj = faults.New(eng, cfg)
	}
	audit.mu.Lock()
	on, flightDir := audit.enabled, audit.flightDir
	audit.mu.Unlock()
	var a *invariant.Auditor
	if on {
		a = invariant.New(eng)
		a.Report = recordAuditViolation
	}
	var n *topology.Net
	if chain == nil {
		tc.Seed, tc.Fault, tc.Audit = seed, inj, a
		n = topology.New(eng, tc)
	} else {
		nc := *chain
		nc.Seed, nc.Audit = seed, a
		if inj != nil {
			nc.Hops = slices.Clone(nc.Hops) // the caller's slice is not ours to write
			nc.Hops[faultHop].Fault = inj
		}
		n = topology.NewNet(eng, nc)
	}
	auditDump := a != nil && flightDir != ""
	cellDump := c != nil && pol.FlightDir != ""
	if auditDump || cellDump {
		fr := obs.NewFlightRecorder(flightRingSize)
		n.Fwd[0].AddTap(fr.LinkTap())
		if auditDump {
			a.Flight = fr
			a.DumpPath = filepath.Join(flightDir,
				fmt.Sprintf("flight-%d.dump", audit.flightSeq.Add(1)))
		}
		if cellDump {
			c.flight = fr
		}
	}
	if c != nil && collect {
		c.observe(n, digest)
	}
	return eng, n
}

// observe attaches telemetry collection points to one scenario the cell
// constructed: a counter registry populated by the topology's Observe —
// read closures, nothing per event — and, when digest is set, a stream
// digest folding the engine's every event. The supervisor snapshots
// both into obs.CellStats after the job returns.
func (c *Cell) observe(n *topology.Net, digest bool) {
	o := cellObs{eng: n.Eng, reg: &obs.Registry{}}
	n.Observe(o.reg)
	if digest {
		o.dig = &sim.StreamDigest{}
		n.Eng.SetStreamDigest(o.dig)
	}
	c.obsv = append(c.obsv, o)
}

// watchFlow registers a wired flow's byte counters and whatever state
// its Probes expose with the scenario's auditor (which the scenario's
// net carries as Cfg.Audit). One loose envelope serves every variable —
// its job is to catch NaN, infinities, negative windows and runaway
// state, not to encode any algorithm's dynamics.
func watchFlow(a *invariant.Auditor, name string, f Flow) {
	a.WatchFlow(name, f.SentBytes, f.RecvBytes)
	if f.Probes == nil {
		return
	}
	for _, v := range f.Probes.ProbeVars() {
		a.WatchValue(name+"/"+v.Name, v.Read, 0, 1e12)
	}
}
