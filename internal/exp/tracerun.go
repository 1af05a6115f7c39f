package exp

import (
	"fmt"
	"strconv"
	"time"

	"slowcc/internal/faults"
	"slowcc/internal/obs"
	"slowcc/internal/obs/journey"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
	"slowcc/internal/trace"
)

// TraceRunConfig describes one ad-hoc traced run: a mix of flows on the
// paper's dumbbell with packet tracing, optional state probes, and the
// net's counters in its manifest. It is the engine behind
// cmd/slowcctrace, factored here so tests drive exactly the code path
// the CLI does.
type TraceRunConfig struct {
	// Seed seeds the engine and queue RNGs (default 1).
	Seed int64
	// Rate is the bottleneck bandwidth in bits/s (default 10 Mbps).
	Rate float64
	// Duration is the simulated horizon in seconds (default 30).
	Duration sim.Time
	// ECN selects an ECN-marking bottleneck.
	ECN bool
	// Algos wires one forward flow per entry; flow IDs are 1..len.
	Algos []AlgoSpec
	// ProbeInterval is the state-sampling cadence in seconds; <= 0
	// disables probing (the sampler hook is still installed, so the
	// disabled path is exercised — and benchmarked — exactly as wired).
	ProbeInterval sim.Time
	// FaultSpec, when non-empty and not "none", wires a fault injector
	// (faults.ParseSpec syntax) onto the forward bottleneck. A disabled
	// spec attaches nothing, so the wired-but-off run is event-for-event
	// identical to one with no spec at all. Invalid specs panic — parse
	// user input with faults.ParseSpec first.
	FaultSpec string
	// Journeys attaches a journey recorder to every link of the
	// topology, capturing per-packet per-hop latency spans, per-hop
	// queue-delay and drop-burst histograms, and per-flow RTT
	// histograms. Off (the default) leaves the one-pointer-check
	// disabled path.
	Journeys bool
	// Digest attaches a rolling stream digest to the engine
	// (sim.StreamDigest): an O(1)-memory fingerprint of the executed
	// event stream, recorded in the manifest and printed by
	// slowcctrace -digest. Off (the default) is the one-nil-check
	// disabled path.
	Digest bool
}

func (c *TraceRunConfig) fill() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Rate == 0 {
		c.Rate = 10e6
	}
	if c.Duration == 0 {
		c.Duration = 30
	}
}

// TraceRun is a wired traced scenario. Construct with NewTraceRun, call
// Run, then read the Recorder, Sampler, and Manifest.
type TraceRun struct {
	Cfg     TraceRunConfig
	Eng     *sim.Engine
	D       *topology.Net
	Rec     *trace.Recorder
	Sampler *obs.Sampler
	// Journeys is the per-hop span recorder (nil unless
	// TraceRunConfig.Journeys was set).
	Journeys *journey.Recorder
	// Digest is the event-stream digest (nil unless
	// TraceRunConfig.Digest was set).
	Digest *sim.StreamDigest
	Flows  []Flow
	// Names are the algorithm names, flow order.
	Names []string

	started time.Time
	ran     bool
}

// NewTraceRun builds the scenario: dumbbell, flows, a bottleneck packet
// trace, a sampler over every flow's probe variables (and the RED
// queues). Nothing runs yet.
func NewTraceRun(cfg TraceRunConfig) *TraceRun {
	cfg.fill()
	var fc faults.Config
	if cfg.FaultSpec != "" {
		var err error
		if fc, err = faults.ParseSpec(cfg.FaultSpec); err != nil {
			panic(fmt.Sprintf("exp: TraceRunConfig.FaultSpec: %v", err))
		}
	}
	var c *Cell // a traced run is no sweep's cell
	eng, d := c.buildScenario(cfg.Seed, topology.Config{Rate: cfg.Rate, ECN: cfg.ECN}, nil, &fc, 0)

	r := &TraceRun{
		Cfg:     cfg,
		Eng:     eng,
		D:       d,
		Rec:     &trace.Recorder{},
		Sampler: obs.NewSampler(cfg.ProbeInterval),
	}
	d.Fwd[0].AddTap(r.Rec.HopTap("lr"))
	if cfg.Journeys {
		// Before the flows wire: access links attach to the recorder as
		// each path is built.
		r.Journeys = journey.New()
		d.ObserveJourneys(r.Journeys)
	}

	for i, algo := range cfg.Algos {
		f := algo.Make(eng, d, i+1)
		r.Flows = append(r.Flows, f)
		r.Names = append(r.Names, algo.Name)
		r.Sampler.Add(fmt.Sprintf("flow%d.%s", i+1, algo.Name), f.Probes)
		eng.At(0, f.Sender.Start)
	}
	d.ObserveProbes(r.Sampler)
	r.Sampler.Install(eng)
	if cfg.Digest {
		r.Digest = &sim.StreamDigest{}
		eng.SetStreamDigest(r.Digest)
	}
	return r
}

// Run executes the scenario to its horizon.
func (r *TraceRun) Run() {
	r.started = time.Now()
	r.Eng.RunUntil(r.Cfg.Duration)
	r.ran = true
}

// Manifest returns the run's manifest: configuration, algorithms, event
// count, the net's counters (topology.Net.Counters), and wall time.
// Output digests are the caller's to add (it knows what files it wrote)
// before sealing via WriteFile/Encode.
func (r *TraceRun) Manifest(tool string) *obs.Manifest {
	m := obs.NewManifest(tool, r.Cfg.Seed)
	m.DurationS = float64(r.Cfg.Duration)
	m.Algos = append([]string{}, r.Names...)
	m.Config["rate_bps"] = strconv.FormatFloat(r.Cfg.Rate, 'g', -1, 64)
	m.Config["ecn"] = strconv.FormatBool(r.Cfg.ECN)
	m.Config["probe_interval_s"] = strconv.FormatFloat(float64(r.Cfg.ProbeInterval), 'g', -1, 64)
	if r.Cfg.FaultSpec != "" {
		m.Config["fault"] = r.Cfg.FaultSpec
	}
	m.Events = r.Eng.Steps()
	m.Counters = map[string]int64{}
	r.D.Counters(m.Counters)
	if r.Journeys != nil {
		r.Journeys.Finalize()
		m.Histograms = r.Journeys.Histograms()
		m.Config["journeys"] = "true"
	}
	if r.Digest != nil {
		m.Config["stream_digest"] = fmt.Sprintf("%016x", r.Digest.Sum())
		m.Config["stream_digest_events"] = strconv.FormatUint(r.Digest.Events(), 10)
	}
	if r.ran {
		m.WallTimeS = time.Since(r.started).Seconds()
	}
	return m
}
