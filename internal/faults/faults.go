// Package faults injects deterministic network faults into a netem
// topology: scheduled link outages, seeded up/down flapping, payload
// corruption, packet duplication, and bounded reordering.
//
// Every random decision draws from a dedicated RNG stream seeded from
// Config.Seed, never from the engine's RNG, so enabling an injector on
// one link cannot perturb random draws made elsewhere in the scenario,
// and the fault sequence for a given seed is reproducible regardless of
// the traffic offered. A disabled injector (zero Config) is literally
// free: Attach returns the wrapped handler unchanged and schedules
// nothing, so a run wired through a disabled injector executes the
// identical event stream — event by event — as a run with no injector
// at all, with zero extra allocations.
package faults

import (
	"fmt"
	"math"
	"math/rand"

	"slowcc/internal/netem"
	"slowcc/internal/sim"
)

// Window is one scheduled outage: the link goes down at At and comes
// back up Dur seconds later.
type Window struct {
	At  sim.Time
	Dur sim.Time
}

// Flap is a seeded on/off process: the link alternates between up
// periods drawn from Exp(MeanUp) and down periods drawn from
// Exp(MeanDown), starting up. A flapping injector reschedules itself
// forever; drive the engine with RunUntil or under a Budget, not a bare
// Run.
type Flap struct {
	MeanUp   sim.Time
	MeanDown sim.Time
}

// Config describes the faults to inject. The zero value is a disabled
// injector. Probabilities are per packet, evaluated independently in
// the fixed order corrupt, duplicate, reorder.
type Config struct {
	// Seed seeds the injector's dedicated RNG stream. Runs with the same
	// Config produce the same fault sequence for the same offered traffic.
	Seed int64
	// Windows are scheduled outages, applied in addition to any Flap.
	Windows []Window
	// Flap, when non-nil, drives a random up/down process on the link.
	Flap *Flap
	// Policy selects what the down link does with arrivals (see
	// netem.DownPolicy). The default, DownQueue, buffers them.
	Policy netem.DownPolicy
	// CorruptProb is the probability a packet arrives with a failed
	// checksum: it is discarded at the link entry, exactly as a NIC
	// discards a CRC-failed frame, and counted in Stats.Corrupted.
	CorruptProb float64
	// DupProb is the probability a packet is delivered twice (the copy
	// queues immediately behind the original).
	DupProb float64
	// ReorderProb is the probability a packet is held back for a uniform
	// extra delay in (0, ReorderDelay] before being offered to the link,
	// overtaking packets that arrive during the hold — bounded reordering.
	ReorderProb float64
	// ReorderDelay bounds the hold applied to reordered packets; it must
	// be positive and finite when ReorderProb > 0.
	ReorderDelay sim.Time
}

// Enabled reports whether the config injects anything at all.
func (c *Config) Enabled() bool {
	return len(c.Windows) > 0 || c.Flap != nil ||
		c.CorruptProb > 0 || c.DupProb > 0 || c.ReorderProb > 0
}

// probabilistic reports whether any per-packet fault is configured, i.e.
// whether Attach needs to interpose a wrapper on the packet path.
func (c *Config) probabilistic() bool {
	return c.CorruptProb > 0 || c.DupProb > 0 || c.ReorderProb > 0
}

// Validate checks the configuration. New panics on exactly the errors
// Validate reports, so a config that round-trips through Validate is
// safe to hand to New.
func (c *Config) Validate() error {
	for _, w := range c.Windows {
		if !(w.At >= 0) || math.IsInf(w.At, 0) {
			return fmt.Errorf("faults: outage start %v is not a non-negative finite time", w.At)
		}
		if !(w.Dur > 0) || math.IsInf(w.Dur, 0) {
			return fmt.Errorf("faults: outage duration %v is not a positive finite time", w.Dur)
		}
		if math.IsInf(w.At+w.Dur, 0) {
			return fmt.Errorf("faults: outage end %v+%v overflows", w.At, w.Dur)
		}
	}
	if f := c.Flap; f != nil {
		if !(f.MeanUp > 0) || math.IsInf(f.MeanUp, 0) || !(f.MeanDown > 0) || math.IsInf(f.MeanDown, 0) {
			return fmt.Errorf("faults: flap means %v/%v must be positive finite times", f.MeanUp, f.MeanDown)
		}
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"corrupt", c.CorruptProb}, {"dup", c.DupProb}, {"reorder", c.ReorderProb}} {
		if !(p.v >= 0 && p.v <= 1) { // also rejects NaN
			return fmt.Errorf("faults: %s probability %v outside [0,1]", p.name, p.v)
		}
	}
	if c.ReorderDelay < 0 || math.IsNaN(c.ReorderDelay) || math.IsInf(c.ReorderDelay, 0) {
		// Checked even with ReorderProb == 0, so a bad delay can never
		// hide in a config whose probability is later raised.
		return fmt.Errorf("faults: reorder delay %v must be non-negative and finite", c.ReorderDelay)
	}
	if c.ReorderProb > 0 && !(c.ReorderDelay > 0) {
		return fmt.Errorf("faults: reorder delay %v must be positive and finite", c.ReorderDelay)
	}
	return nil
}

// Stats counts the faults an injector has inflicted. Outage transitions
// are visible on the link itself (Link.Transitions).
type Stats struct {
	// Corrupted is the number of packets discarded as checksum failures.
	Corrupted int64
	// Duplicated is the number of extra copies injected.
	Duplicated int64
	// Reordered is the number of packets held back for extra delay.
	Reordered int64
}

// Injector drives the faults described by a Config against one link.
// Create one with New, then wire it with Attach.
type Injector struct {
	// Stats accumulates fault counts for the lifetime of the injector.
	Stats Stats

	eng  *sim.Engine
	cfg  Config
	rng  *rand.Rand // built by the first draw (see rand)
	link *netem.Link
	next netem.Handler
	pool *netem.PacketPool

	// Pre-bound callbacks so the packet path schedules timers without
	// allocating closures (the same discipline Link uses).
	releaseFn func(any)
	flapTm    *sim.Timer
}

// New returns an injector for cfg driven by eng's clock. The injector
// owns a dedicated RNG stream seeded with cfg.Seed; it never draws from
// eng.Rand. New panics on a config Validate rejects.
func New(eng *sim.Engine, cfg Config) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	in := &Injector{eng: eng, cfg: cfg}
	in.releaseFn = func(a any) { in.next.Handle(a.(*netem.Packet)) }
	return in
}

// rand returns the injector's generator, seeding it on the first draw:
// an injector that only schedules outage windows never draws, and the
// generator's state is 5 KB a sweep cell need not allocate.
func (in *Injector) rand() *rand.Rand {
	if in.rng == nil {
		in.rng = rand.New(rand.NewSource(in.cfg.Seed))
	}
	return in.rng
}

// Attach wires the injector onto link: outage windows and flapping are
// scheduled against the engine, and the returned handler replaces entry
// as the point where packets are offered to the link. pool receives
// packets the injector discards (corruption); it must be the pool the
// scenario's packets come from.
//
// A disabled injector (or nil receiver) attaches nothing and returns
// entry unchanged — the zero-cost path the determinism guarantee relies
// on. An injector attaches to exactly one link.
func (in *Injector) Attach(link *netem.Link, entry netem.Handler, pool *netem.PacketPool) netem.Handler {
	if in == nil || !in.cfg.Enabled() {
		return entry
	}
	if in.link != nil {
		panic("faults: injector already attached; use one Injector per link")
	}
	in.link = link
	in.next = entry
	in.pool = pool
	for _, w := range in.cfg.Windows {
		w := w
		in.eng.At(w.At, func() { link.SetDown(in.cfg.Policy) })
		in.eng.At(w.At+w.Dur, link.SetUp)
	}
	if in.cfg.Flap != nil {
		in.flapTm = in.eng.ResetAfter(nil, in.cfg.Flap.MeanUp*exponential(in.rand()), in.flapDown)
	}
	if !in.cfg.probabilistic() {
		return entry
	}
	return netem.HandlerFunc(in.handle)
}

// Attached reports whether Attach has wired the injector onto a link.
func (in *Injector) Attached() bool { return in != nil && in.link != nil }

// exponential returns an Exp(1) draw by von Neumann's comparison method:
// a uniform u starts a descending run u > u2 > ..., odd in length with
// probability e^-u; an odd run returns k + u, an even one adds 1 to k and
// starts over. Comparisons and one sum: the same on every CPU.
func exponential(r *rand.Rand) float64 {
	for k := 0.0; ; k++ {
		u, odd := r.Float64(), true
		for prev, v := u, r.Float64(); v < prev; prev, v = v, r.Float64() {
			odd = !odd
		}
		if odd {
			return k + u
		}
	}
}

// flapDown and flapUp alternate the link state with exponentially
// distributed holding times drawn from the dedicated stream.
func (in *Injector) flapDown() {
	in.link.SetDown(in.cfg.Policy)
	in.flapTm = in.eng.ResetAfter(in.flapTm, in.cfg.Flap.MeanDown*exponential(in.rand()), in.flapUp)
}

func (in *Injector) flapUp() {
	in.link.SetUp()
	in.flapTm = in.eng.ResetAfter(in.flapTm, in.cfg.Flap.MeanUp*exponential(in.rand()), in.flapDown)
}

// handle is the per-packet fault path, interposed ahead of the link
// entry when any probabilistic fault is configured. Faults are drawn in
// the fixed order corrupt, duplicate, reorder so a given RNG stream
// maps to one fault sequence.
func (in *Injector) handle(p *netem.Packet) {
	if in.cfg.CorruptProb > 0 && in.rand().Float64() < in.cfg.CorruptProb {
		// A checksum failure: the frame is discarded before the queue ever
		// sees it. The injector discovered the drop, so it releases.
		in.Stats.Corrupted++
		in.pool.Put(p)
		return
	}
	if in.cfg.DupProb > 0 && in.rand().Float64() < in.cfg.DupProb {
		in.Stats.Duplicated++
		q := in.pool.Get()
		*q = *p
		if p.FB != nil {
			fb := *p.FB // deep-copy feedback so the copies never alias
			q.FB = &fb
		}
		in.next.Handle(p)
		in.next.Handle(q)
		return
	}
	if in.cfg.ReorderProb > 0 && in.rand().Float64() < in.cfg.ReorderProb {
		in.Stats.Reordered++
		in.eng.AfterFunc(in.cfg.ReorderDelay*in.rand().Float64(), in.releaseFn, p)
		return
	}
	in.next.Handle(p)
}
