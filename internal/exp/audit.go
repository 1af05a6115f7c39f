package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"slowcc/internal/faults"
	"slowcc/internal/invariant"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
	"slowcc/internal/trace"
)

// Audit mode (supervision.audit) makes every scenario a figure driver
// constructs run under the internal/invariant auditing layer: packet
// conservation on every link, clock sanity on every event, and per-flow
// byte and bound checks. It is a package switch, not a Sweep setting,
// and nothing exported flips it: the exp suite's TestMain turns it on
// for the whole package, so no test's Sweep can leave it out and the
// scaled-down figure suite cannot pass while any accounting invariant
// is broken; benchmarks and production runs leave it off and pay only
// a nil check per event. Violations land in supervision (auditTotal,
// violations), shared across engines because sweep drivers run
// scenarios concurrently.

// auditMaxRecorded caps how many violations are kept beside the count.
const auditMaxRecorded = 200

// flightRingSize bounds the per-scenario trace ring an audited scenario
// dumps on its first violation: enough recent bottleneck events to see
// the lead-up, small enough that the audited figure suite's memory
// stays flat.
const flightRingSize = 512

func recordAuditViolation(v invariant.Violation) {
	supervision.mu.Lock()
	defer supervision.mu.Unlock()
	supervision.auditTotal++
	if len(supervision.violations) < auditMaxRecorded {
		supervision.violations = append(supervision.violations, v)
	}
}

// newScenario constructs the engine and dumbbell a figure driver runs
// on: buildScenario with the Sweep's fault configuration.
func (c *Cell) newScenario(seed int64, tc topology.Config) (*sim.Engine, *topology.Net) {
	return c.buildScenario(seed, tc, nil, nil, 0)
}

// buildScenario is the one place a figure or matrix scenario gets its
// engine and topology: the paper's dumbbell tc or, when chain is
// non-nil, that chain instead. c is the sweep cell the scenario runs
// under, whose Sweep's settings apply; a nil cell, outside supervised
// sweeps, runs with none. The seed drives the engine, the topology's
// queues and, unless the configuration names its own, the fault stream.
// It applies the run budget (-max-events, and -deadline's wall budget,
// of which each engine gets what the cell has left); attaches the
// fault configuration — explicit fc, else the -fault one — to the
// forward link of hop faultHop, so multi-bottleneck scenarios pick which
// hop degrades; wires the invariant auditor through every link when
// audit mode is on, with a trace ring over the first forward hop that
// the auditor's first violation dumps when the audit dump directory is
// set; registers the topology with the cell's live-telemetry collector;
// and records it on the cell, whose supervisor releases it if the cell
// succeeds (Cell.release).
func (c *Cell) buildScenario(seed int64, tc topology.Config, chain *topology.NetConfig, fc *faults.Config, faultHop int) (*sim.Engine, *topology.Net) {
	eng := sim.New(seed)
	sw := &Sweep{} // outside any sweep: no settings
	if c != nil {
		sw = c.sw
	}
	if b := sw.Budget; b != nil {
		if b.MaxWall > 0 {
			// The cell's engines share one wall budget: this one gets
			// what the engines before it left, at least 1 ns, so one
			// built after the deadline halts at its first event.
			rest := *b
			rest.MaxWall = max(b.MaxWall-time.Since(c.start), 1)
			b = &rest
		}
		eng.SetBudget(b)
	}
	if fc == nil {
		fc = sw.Fault
	}
	var inj *faults.Injector
	if fc != nil && fc.Enabled() {
		cfg := *fc
		if cfg.Seed == 0 {
			cfg.Seed = seed // default the fault stream onto the scenario's seed
		}
		inj = faults.New(eng, cfg)
	}
	supervision.mu.Lock()
	audit, flightDir := supervision.audit, supervision.auditFlightDir
	supervision.mu.Unlock()
	var a *invariant.Auditor
	if audit {
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
	if a != nil && flightDir != "" {
		ring := &trace.Recorder{Limit: flightRingSize}
		n.Fwd[0].AddTap(ring.LinkTap())
		path := filepath.Join(flightDir, fmt.Sprintf("flight-%d.tsv", supervision.flightSeq.Add(1)))
		a.Report = func(v invariant.Violation) {
			if a.Total == 1 { // the lead-up; later violations are usually cascade
				dumpRing(ring, path)
			}
			recordAuditViolation(v)
		}
	}
	// A sink or a store reads the cell's counters — recorded cells carry
	// them with the event count so a resumed run replays the /metrics
	// state a cold run produces — once, after the job returns
	// (cellStats). Folding the event stream is per-event work, so only a
	// live sink gets a digest, and a store records whatever the cell ran
	// with.
	if c != nil {
		if sw.Progress != nil {
			dig := &sim.StreamDigest{}
			eng.SetStreamDigest(dig)
			c.digests = append(c.digests, dig)
		}
		c.nets = append(c.nets, n)
	}
	return eng, n
}

// dumpRing writes ring's events to path as a trace TSV. A failed write
// is dropped: the violation itself is still counted and reported.
func dumpRing(ring *trace.Recorder, path string) {
	f, err := os.Create(path)
	if err != nil {
		return
	}
	defer f.Close()
	_ = ring.WriteTSV(f)
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
