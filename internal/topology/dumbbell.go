// Package topology builds the paper's simulation topology: a
// single-bottleneck "dumbbell" with RED queue management at the
// bottleneck, per-flow access links, and a reverse bottleneck so that
// acknowledgment traffic shares a (potentially congested) return path.
package topology

import (
	"fmt"
	"math"
	"math/rand"

	"slowcc/internal/faults"
	"slowcc/internal/invariant"
	"slowcc/internal/netem"
	"slowcc/internal/obs"
	"slowcc/internal/obs/journey"
	"slowcc/internal/sim"
)

// Config describes a dumbbell. Zero fields take the paper's defaults.
type Config struct {
	// Rate is the bottleneck bandwidth in bits per second
	// (default 10 Mbps).
	Rate float64
	// Delay is the bottleneck one-way propagation delay
	// (default 21 ms).
	Delay sim.Time
	// AccessRate is the per-flow access link bandwidth (default 1 Gbps,
	// i.e. effectively unconstrained).
	AccessRate float64
	// AccessDelay is the one-way delay of each access link
	// (default 2 ms). The end-to-end propagation RTT is
	// 2*(2*AccessDelay + Delay): 50 ms with the defaults.
	AccessDelay sim.Time
	// PktSize is the reference packet size in bytes for converting the
	// bandwidth-delay product to packets (default cc.DefaultPktSize).
	PktSize int
	// QueueFactor sizes the bottleneck buffer as a multiple of the BDP
	// (default 2.5, per the paper).
	QueueFactor float64
	// REDMinFactor and REDMaxFactor set the RED thresholds as multiples
	// of the BDP (defaults 0.25 and 1.25, per the paper).
	REDMinFactor, REDMaxFactor float64
	// DropTail selects simple tail-drop instead of RED at the
	// bottleneck (used by the paper's ablation).
	DropTail bool
	// ECN makes both RED bottlenecks mark ECN-capable packets instead
	// of dropping them. Ignored with DropTail.
	ECN bool
	// Gentle enables RED's gentle ramp above MaxThresh.
	Gentle bool
	// ForwardLoss, if non-nil, installs a scripted drop pattern in
	// front of the forward bottleneck. Data packets are dropped per the
	// pattern; control packets pass. The smoothness experiments
	// (Figures 17-19) use it to impose the paper's designed loss
	// processes.
	ForwardLoss netem.DropPattern
	// Seed seeds the RED generators (they draw from a dedicated RNG so
	// endpoint randomness does not perturb queue randomness).
	Seed int64
	// Fault, when non-nil, is attached to the forward bottleneck: its
	// outage windows and flapping drive LR's down/up state, and its
	// probabilistic faults (corruption, duplication, reordering) wrap
	// the point where packets are offered to LR — after the scripted
	// ForwardLoss filter, so designed loss patterns see the offered
	// stream. A disabled injector attaches nothing and the topology is
	// wired exactly as without one.
	Fault *faults.Injector
	// Audit, when non-nil, registers every link the dumbbell creates
	// (both bottlenecks and all per-flow access links) with the given
	// invariant auditor, so packet conservation is checked at every
	// accounting transition of the whole topology. Nil disables auditing
	// at zero per-packet cost.
	Audit *invariant.Auditor
	// DisablePool leaves Dumbbell.Pool nil, so every packet is heap
	// allocated and never reused — the pre-pooling behavior. It exists
	// for the determinism cross-check, which asserts pooled and unpooled
	// runs of the same scenario produce bit-identical metrics.
	DisablePool bool
	// Strict makes routing failures loud: a packet arriving at a demux
	// for a flow with no registered egress panics instead of being
	// counted and discarded. Audited multi-hop scenarios opt in so
	// misrouting cannot hide as a sink; scenarios with deliberate
	// one-way traffic leave it off.
	Strict bool
}

// ExplicitZero is the sentinel for Config fields whose zero value means
// "use the paper default" (Delay, AccessDelay, REDMinFactor): setting
// such a field to ExplicitZero — or any negative value, or NaN —
// requests a literal zero, so a zero-delay hop or a RED queue with
// min-threshold 0 is expressible.
const ExplicitZero = -1

// zeroable resolves one default-on-zero field: zero takes the default,
// an explicit-zero sentinel (negative or NaN) takes literal zero, and
// any positive value passes through.
func zeroable(v, def float64) float64 {
	if v == 0 {
		return def
	}
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	return v
}

func (c *Config) fill() {
	if c.Rate == 0 {
		c.Rate = 10e6
	}
	c.Delay = zeroable(c.Delay, 0.021)
	if c.AccessRate == 0 {
		c.AccessRate = 1e9
	}
	c.AccessDelay = zeroable(c.AccessDelay, 0.002)
	if c.PktSize == 0 {
		c.PktSize = 1000
	}
	if c.QueueFactor == 0 {
		c.QueueFactor = 2.5
	}
	c.REDMinFactor = zeroable(c.REDMinFactor, 0.25)
	if c.REDMaxFactor == 0 {
		c.REDMaxFactor = 1.25
	}
}

// PropRTT returns the end-to-end propagation round-trip time of a
// dumbbell with config c.
func (c Config) PropRTT() sim.Time {
	cc := c
	cc.fill()
	return 2 * (2*cc.AccessDelay + cc.Delay)
}

// BDPPkts returns the bottleneck bandwidth-delay product in packets.
func (c Config) BDPPkts() float64 {
	cc := c
	cc.fill()
	return cc.Rate * cc.PropRTT() / 8 / float64(cc.PktSize)
}

// Dumbbell is the instantiated topology. LR ("left to right") is the
// forward bottleneck; RL is the reverse bottleneck.
type Dumbbell struct {
	Eng    *sim.Engine
	Cfg    Config
	LR, RL *netem.Link
	// Filter is the scripted loss stage ahead of LR (nil unless
	// Config.ForwardLoss was set).
	Filter *netem.LossFilter
	// Pool recycles packets across the whole topology. Endpoints wired
	// onto the dumbbell should allocate and release through it. Nil when
	// Config.DisablePool is set, which every pool-aware component treats
	// as plain heap allocation.
	Pool *netem.PacketPool
	// UnknownFlowDrops counts packets that left a bottleneck carrying a
	// flow id with no registered egress. Deliberate one-way traffic
	// lands here by design; anything else is misrouting, which strict
	// mode (Config.Strict) turns into a panic instead.
	UnknownFlowDrops int64

	lrEntry  netem.Handler     // LR, or Filter when configured
	demuxR   *routes           // flow -> right-side egress (after LR)
	demuxL   *routes           // flow -> left-side egress (after RL)
	journeys *journey.Recorder // nil unless ObserveJourneys was called
}

// routes is one demux's table, indexed by flow id. Flow ids are small
// non-negative ints (AlgoSpec.Make numbers flows from 1, cross traffic
// sits in the 800s, flash crowds start at 10000), so a dense slice keeps
// hashing off the per-packet path. Demuxes share it by pointer: links
// capture their demux by value before any flow has registered.
type routes struct{ byFlow []netem.Handler }

// maxFlowID bounds the table (16 MB of handlers) against a wild id.
const maxFlowID = 1 << 20

// get returns flow's handler, nil when none is registered — which
// includes every id outside the table, negative ones among them.
func (r *routes) get(flow int) netem.Handler {
	if uint(flow) < uint(len(r.byFlow)) {
		return r.byFlow[flow]
	}
	return nil
}

func (r *routes) set(flow int, h netem.Handler) {
	if flow < 0 || flow >= maxFlowID {
		panic(fmt.Sprintf("topology: flow id %d outside 0..%d", flow, maxFlowID-1))
	}
	if n := flow + 1 - len(r.byFlow); n > 0 {
		r.byFlow = append(r.byFlow, make([]netem.Handler, n)...)
	}
	r.byFlow[flow] = h
}

// demux routes packets leaving a bottleneck to the registered per-flow
// access link.
type demux struct {
	table  *routes
	pool   *netem.PacketPool
	name   string
	drops  *int64
	strict bool
}

func (d demux) Handle(p *netem.Packet) {
	if h := d.table.get(p.Flow); h != nil {
		h.Handle(p)
		return
	}
	// No registration. Historically a silent sink for one-way traffic;
	// the drop is now always counted so misrouting in a larger topology
	// leaves a trace, and strict mode makes it fatal.
	*d.drops++
	if d.strict {
		panic(fmt.Sprintf("topology: packet for unregistered flow %d (kind %d, seq %d) at %s demux",
			p.Flow, p.Kind, p.Seq, d.name))
	}
	// The demux is the packet's final owner here, so it releases.
	d.pool.Put(p)
}

// New builds a dumbbell on eng.
func New(eng *sim.Engine, cfg Config) *Dumbbell {
	cfg.fill()
	d := &Dumbbell{
		Eng:    eng,
		Cfg:    cfg,
		demuxR: new(routes),
		demuxL: new(routes),
	}
	if !cfg.DisablePool {
		d.Pool = &netem.PacketPool{}
	}
	// The bottleneck's per-packet transmission time is the dominant event
	// cadence of every scenario on this topology; sizing the calendar
	// queue's buckets to it affects performance only, never event order.
	eng.HintTick(float64(cfg.PktSize) * 8 / cfg.Rate)
	bdp := cfg.BDPPkts()
	mk := func(seed int64) netem.Queue {
		return buildQueue(queueSpec{
			DropTail: cfg.DropTail, ECN: cfg.ECN, Gentle: cfg.Gentle,
			QueueFactor: cfg.QueueFactor, REDMinFactor: cfg.REDMinFactor,
			REDMaxFactor: cfg.REDMaxFactor, BDP: bdp,
			PktSize: cfg.PktSize, Rate: cfg.Rate, Seed: seed,
		})
	}
	d.LR = netem.NewLink(eng, cfg.Rate, cfg.Delay, mk(cfg.Seed+1),
		demux{d.demuxR, d.Pool, "right", &d.UnknownFlowDrops, cfg.Strict})
	d.RL = netem.NewLink(eng, cfg.Rate, cfg.Delay, mk(cfg.Seed+2),
		demux{d.demuxL, d.Pool, "left", &d.UnknownFlowDrops, cfg.Strict})
	d.LR.Pool = d.Pool
	d.RL.Pool = d.Pool
	if cfg.Audit != nil {
		cfg.Audit.WatchLink("LR", d.LR)
		cfg.Audit.WatchLink("RL", d.RL)
	}
	d.lrEntry = d.LR
	if cfg.Fault != nil {
		// The injector's wrapper sits where packets are offered to LR, so
		// the loss filter (below) feeds faults, not the other way around.
		d.lrEntry = cfg.Fault.Attach(d.LR, d.lrEntry, d.Pool)
	}
	if cfg.ForwardLoss != nil {
		d.Filter = &netem.LossFilter{Pattern: cfg.ForwardLoss, Next: d.lrEntry, Now: eng.Now, Pool: d.Pool}
		d.lrEntry = d.Filter
	}
	return d
}

// queueSpec carries everything one bottleneck queue needs; the dumbbell
// and the parking-lot chain size their per-hop queues through the same
// construction so a hop with the dumbbell's parameters gets a
// bit-identical queue.
type queueSpec struct {
	DropTail, ECN, Gentle      bool
	QueueFactor                float64
	REDMinFactor, REDMaxFactor float64
	BDP                        float64 // bandwidth-delay product in packets
	PktSize                    int
	Rate                       float64
	Seed                       int64
}

// buildQueue constructs one bottleneck queue: RED with thresholds and
// capacity as multiples of the BDP (the paper's sizing), or simple
// tail-drop.
func buildQueue(s queueSpec) netem.Queue {
	capPkts := int(s.QueueFactor*s.BDP + 0.5)
	if capPkts < 4 {
		capPkts = 4
	}
	if s.DropTail {
		return netem.NewDropTail(capPkts)
	}
	txTime := float64(s.PktSize) * 8 / s.Rate
	q := netem.NewRED(s.REDMinFactor*s.BDP, s.REDMaxFactor*s.BDP,
		capPkts, txTime, rand.New(rand.NewSource(s.Seed)))
	q.MarkECN = s.ECN
	q.Gentle = s.Gentle
	return q
}

// SharedPool implements Fabric: the pool endpoints should allocate and
// release through (nil under DisablePool).
func (d *Dumbbell) SharedPool() *netem.PacketPool { return d.Pool }

// PropRTT implements Fabric: the end-to-end propagation round-trip time
// for a flow using the default access delay.
func (d *Dumbbell) PropRTT() sim.Time { return d.Cfg.PropRTT() }

// Observe registers the dumbbell's core components with the counter
// registry: the engine's scheduler counters, both bottleneck links
// (with RED drop splits when RED is in use), and the packet pool. The
// per-flow access links are deliberately omitted — they are sized not
// to drop, so their counters only restate the bottlenecks'.
func (d *Dumbbell) Observe(reg *obs.Registry) {
	reg.AddEngine(d.Eng)
	reg.AddLink("lr", d.LR)
	reg.AddLink("rl", d.RL)
	reg.AddPool(d.Pool)
	reg.Register("topo.unknown_flow_drops", func() int64 { return d.UnknownFlowDrops })
}

// ObserveProbes registers both bottleneck RED queues with the sampler
// (no-op under DropTail, which has no EWMA state worth tracing).
func (d *Dumbbell) ObserveProbes(s *obs.Sampler) {
	if r, ok := d.LR.Q.(*netem.RED); ok {
		s.Add("red.lr", r)
	}
	if r, ok := d.RL.Q.(*netem.RED); ok {
		s.Add("red.rl", r)
	}
}

// ObserveJourneys attaches a journey recorder to every link of the
// dumbbell: both bottlenecks immediately, and each flow's access links
// as the flows wire (so it must be called before paths are built to
// observe them). Access links delivering into endpoints are marked
// egress, closing end-to-end attribution there. A nil recorder attaches
// nothing, leaving the wired-but-disabled one-pointer-check path.
func (d *Dumbbell) ObserveJourneys(r *journey.Recorder) {
	d.journeys = r
	if r == nil {
		return
	}
	r.AttachLink("lr", d.LR, false)
	r.AttachLink("rl", d.RL, false)
}

// PathLR wires a left-to-right path for flow: packets offered to the
// returned ingress traverse a fresh access link, the forward bottleneck,
// and a second access link before reaching dst. Registering the same
// flow twice panics.
func (d *Dumbbell) PathLR(flow int, dst netem.Handler) netem.Handler {
	return d.path(flow, dst, d.lrEntry, d.demuxR, d.Cfg.AccessDelay, "lr")
}

// PathRL wires a right-to-left path for flow (the return direction used
// by ACKs of forward flows, or the data direction of reverse flows).
func (d *Dumbbell) PathRL(flow int, dst netem.Handler) netem.Handler {
	return d.path(flow, dst, d.RL, d.demuxL, d.Cfg.AccessDelay, "rl")
}

// PathLRDelay is PathLR with a per-flow access-link delay, used to give
// flows heterogeneous round-trip times on a shared bottleneck. The
// flow's propagation RTT becomes 2*(2*accessDelay + bottleneck delay)
// when PathRLDelay uses the same value.
func (d *Dumbbell) PathLRDelay(flow int, dst netem.Handler, accessDelay sim.Time) netem.Handler {
	return d.path(flow, dst, d.lrEntry, d.demuxR, accessDelay, "lr")
}

// PathRLDelay is PathRL with a per-flow access-link delay.
func (d *Dumbbell) PathRLDelay(flow int, dst netem.Handler, accessDelay sim.Time) netem.Handler {
	return d.path(flow, dst, d.RL, d.demuxL, accessDelay, "rl")
}

func (d *Dumbbell) path(flow int, dst netem.Handler, bottleneck netem.Handler, table *routes, accessDelay sim.Time, dir string) netem.Handler {
	if table.get(flow) != nil {
		panic(fmt.Sprintf("topology: flow %d already registered on this direction", flow))
	}
	// Egress access link: bottleneck -> demux -> this link -> dst.
	out := netem.NewLink(d.Eng, d.Cfg.AccessRate, accessDelay,
		netem.NewDropTail(1<<20), dst)
	out.Pool = d.Pool
	table.set(flow, out)
	// Ingress access link: source -> this link -> bottleneck.
	in := netem.NewLink(d.Eng, d.Cfg.AccessRate, accessDelay,
		netem.NewDropTail(1<<20), bottleneck)
	in.Pool = d.Pool
	if d.Cfg.Audit != nil {
		d.Cfg.Audit.WatchLink(fmt.Sprintf("access-%d-out", flow), out)
		d.Cfg.Audit.WatchLink(fmt.Sprintf("access-%d-in", flow), in)
	}
	if d.journeys != nil {
		d.journeys.AttachLink(fmt.Sprintf("access-%d-%s-in", flow, dir), in, false)
		d.journeys.AttachLink(fmt.Sprintf("access-%d-%s-out", flow, dir), out, true)
	}
	return in
}

// ForwardSink registers dst as the right-side consumer for flow without
// an egress access link (used by one-way CBR traffic where delivery
// latency does not matter). It panics on duplicate registration.
func (d *Dumbbell) ForwardSink(flow int, dst netem.Handler) {
	if d.demuxR.get(flow) != nil {
		panic(fmt.Sprintf("topology: flow %d already registered on this direction", flow))
	}
	d.demuxR.set(flow, dst)
}
