package topology

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"slowcc/internal/faults"
	"slowcc/internal/invariant"
	"slowcc/internal/netem"
	"slowcc/internal/obs"
	"slowcc/internal/obs/journey"
	"slowcc/internal/sim"
)

// Fabric is the wiring surface algorithms see: everything needed to put
// a flow onto a topology without knowing whether one bottleneck or a
// chain of them sits in the middle. Net implements it, so every AlgoSpec
// and scenario helper runs unchanged on a dumbbell or a parking lot.
type Fabric interface {
	// Connect wires a two-way flow: snd's packets reach rcv over the
	// span, rcv's reach snd over the same span backwards.
	Connect(flow int, snd, rcv Endpoint, over Span)
	// ConnectOneWay wires src to sink over the span with no path back
	// (CBR and cross traffic: nothing feeds back).
	ConnectOneWay(flow int, src, sink Endpoint, over Span)
	// PropRTT is the end-to-end propagation round-trip time for a flow
	// riding the whole chain with the default access delay.
	PropRTT() sim.Time
}

var _ Fabric = (*Net)(nil)

// Endpoint is one end of a flow: it consumes the packets routed to it
// and is told, once, where its own packets go and which pool they come
// from (cc.Port is the implementation every endpoint embeds).
type Endpoint interface {
	netem.Handler
	Attach(out netem.Handler, pool *netem.PacketPool)
}

// Span is the stretch of the chain a flow rides: in at node From, out at
// node To, over the forward links when From < To and the reverse links
// when From > To. Last stands for the far node, so callers need not know
// the chain's length; the zero Span is the whole chain, forward.
type Span struct {
	From, To int
	// Access is the one-way delay of the flow's access links, for
	// heterogeneous RTTs on a shared chain: zero takes the default
	// 2 ms.
	Access sim.Time
}

// Last is the chain's far node, NumHops(), in a Span.
const Last = -1

// Hop configures one bottleneck link pair (forward and reverse) of a
// chain. Every hop has the paper's delay, buffer and RED thresholds (the
// substrate constants); a zero Rate takes the default, so a one-hop Net
// with a zero Hop is the default dumbbell's bottleneck.
type Hop struct {
	// Rate is the hop bandwidth in bits per second (default 10 Mbps).
	Rate float64
	// DropTail selects tail-drop instead of RED on both directions of
	// this hop.
	DropTail bool
	// ECN makes the hop's RED queues mark ECN-capable packets.
	ECN bool
	// ForwardLoss, if non-nil, installs a scripted drop pattern in front
	// of this hop's forward link (data dropped per the pattern, control
	// passes).
	ForwardLoss netem.DropPattern
	// Fault, when non-nil, is attached to this hop's forward link: the
	// injector drives the link's down/up state and wraps the point where
	// packets are offered to it, after the hop's ForwardLoss filter. One
	// injector per link; different hops need different injectors.
	Fault *faults.Injector
}

// NetConfig describes a parking-lot (chain) topology: nodes 0..K joined
// by K bottleneck hops, each a forward and a reverse link with its own
// queue discipline, plus per-flow access links at every node. One hop
// is the paper's dumbbell.
type NetConfig struct {
	// Hops are the bottlenecks in chain order; empty means one default
	// hop.
	Hops []Hop
	// Seed seeds the per-hop RED generators: hop i draws from Seed+1+2i
	// forward and Seed+2+2i reverse (a dedicated RNG each, so endpoint
	// randomness does not perturb queue randomness).
	Seed int64
	// Audit, when non-nil, registers every link of the chain — both
	// directions of every hop and all access links — with the auditor,
	// and makes routing strict: a packet arriving at any node for an
	// unregistered flow panics instead of being counted and discarded.
	Audit *invariant.Auditor
	// DisablePool leaves Net.Pool nil (heap allocation; the determinism
	// cross-check's pre-pooling behavior).
	DisablePool bool
}

// fill writes the default rate into a copy of the hops: the caller's
// slice is not written.
func (c *NetConfig) fill() {
	c.Hops = slices.Clone(c.Hops)
	if len(c.Hops) == 0 {
		c.Hops = []Hop{{}}
	}
	for i := range c.Hops {
		if c.Hops[i].Rate == 0 {
			c.Hops[i].Rate = 10e6
		}
	}
}

// propRTT is the propagation round-trip time of the full chain for a
// flow using the default access delay: 2*(2*accessDelay + the hop
// delays). It adds the delays hop by hop through variables, so it
// rounds as a run-time sum does, not as a folded constant would.
// hopBDPPkts is hop i's bandwidth-delay product in packets over the
// full-chain propagation RTT: the RTT a chain-traversing flow sees,
// which is what the paper's queue sizing is relative to.
func (c *NetConfig) propRTT() sim.Time {
	delay, access := hopDelay, accessDelay
	var hops sim.Time
	for range c.Hops {
		hops += delay
	}
	return 2 * (2*access + hops)
}

func (c *NetConfig) hopBDPPkts(i int) float64 {
	return c.Hops[i].Rate * c.propRTT() / 8 / pktSize
}

// Net is an instantiated chain. Fwd[i] carries traffic from node i to
// node i+1; Rev[i] carries traffic from node i+1 to node i.
type Net struct {
	Eng *sim.Engine
	// Cfg is the configuration with every default resolved.
	Cfg NetConfig
	// Fwd and Rev are the bottleneck links per hop.
	Fwd, Rev []*netem.Link
	// Filters holds each hop's scripted forward loss stage (nil entries
	// for hops without Hop.ForwardLoss).
	Filters []*netem.LossFilter
	// Pool recycles packets across the whole chain (nil under
	// DisablePool, which every pool-aware component treats as plain heap
	// allocation). Endpoints wired onto the net should allocate and
	// release through it.
	Pool *netem.PacketPool
	// UnknownFlowDrops counts packets that reached any node carrying a
	// flow id with no route registered there: misrouting, which an
	// audited net (NetConfig.Audit) turns into a panic instead.
	UnknownFlowDrops int64

	names *linkNames // what the links are called

	fwdEntry []netem.Handler // where to offer packets into Fwd[i] (filter/fault wrapped)
	fwdRt    []demux         // router at node i+1, fed by Fwd[i]
	revRt    []demux         // router at node i, fed by Rev[i]
	// fwdFlows and revFlows register each direction's flow ids, with the
	// flow's ingress access link; its egress link is in its exit router.
	fwdFlows, revFlows map[int]*netem.Link
	// srcs are the RED generators, hop i's forward one at 2i and its
	// reverse one at 2i+1.
	srcs     []lazySource
	journeys *journey.Recorder // nil unless ObserveJourneys was called
}

// linkNames is what a net's links are called wherever they go by name:
// counters (Counters), probe sampler, journey recorder, auditor. The
// names reach manifests, goldens and /metrics, so the constructor fixes
// them: hop i's links are hop(fwd, i) and hop(rev, i), and a flow's
// access links are access-<flow>-<tag>-in and -out.
type linkNames struct {
	fwd, rev string
	indexed  bool // hop links are tag+index (fwd0, rev2), not the bare tag

	mu          sync.Mutex
	hopCounters []*[2][7]string // by hop; see counters
}

var (
	chainNames    = &linkNames{fwd: "fwd", rev: "rev", indexed: true}
	dumbbellNames = &linkNames{fwd: "lr", rev: "rl"}
)

// NewNet builds a chain on eng. Its links are called fwd0, rev0, fwd1,
// ... in chain order.
func NewNet(eng *sim.Engine, cfg NetConfig) *Net {
	return build(eng, cfg, chainNames)
}

// build is the one wiring path; names is the link naming.
func build(eng *sim.Engine, cfg NetConfig, names *linkNames) *Net {
	cfg.fill()
	k := len(cfg.Hops)
	n := &Net{
		Eng:      eng,
		Cfg:      cfg,
		Fwd:      make([]*netem.Link, k),
		Rev:      make([]*netem.Link, k),
		Filters:  make([]*netem.LossFilter, k),
		names:    names,
		fwdEntry: make([]netem.Handler, k),
		fwdRt:    make([]demux, k),
		revRt:    make([]demux, k),
		fwdFlows: make(map[int]*netem.Link),
		revFlows: make(map[int]*netem.Link),
		srcs:     make([]lazySource, 2*k),
	}
	if !cfg.DisablePool {
		n.Pool = netem.NewPacketPool()
	}
	// Size the calendar queue's buckets to the slowest hop's per-packet
	// transmission time, the chain's dominant event cadence (performance
	// hint only; event order is width-independent).
	minRate := cfg.Hops[0].Rate
	for _, h := range cfg.Hops[1:] {
		if h.Rate < minRate {
			minRate = h.Rate
		}
	}
	size := float64(pktSize) // a variable: the product rounds at run time
	eng.HintTick(size * 8 / minRate)
	strict := cfg.Audit != nil
	for i, h := range cfg.Hops {
		bdp := cfg.hopBDPPkts(i)
		n.fwdRt[i] = demux{new(routes), n.Pool, i + 1, &n.UnknownFlowDrops, strict}
		n.revRt[i] = demux{new(routes), n.Pool, i, &n.UnknownFlowDrops, strict}
		fsrc, rsrc := &n.srcs[2*i], &n.srcs[2*i+1]
		fsrc.seed, rsrc.seed = cfg.Seed+1+2*int64(i), cfg.Seed+2+2*int64(i)
		n.Fwd[i] = netem.NewLink(eng, h.Rate, hopDelay, buildQueue(h, bdp, fsrc), n.fwdRt[i])
		n.Rev[i] = netem.NewLink(eng, h.Rate, hopDelay, buildQueue(h, bdp, rsrc), n.revRt[i])
		n.Fwd[i].Pool = n.Pool
		n.Rev[i].Pool = n.Pool
		if cfg.Audit != nil {
			cfg.Audit.WatchLink(names.hop(names.fwd, i), n.Fwd[i])
			cfg.Audit.WatchLink(names.hop(names.rev, i), n.Rev[i])
		}
		entry := netem.Handler(n.Fwd[i])
		if h.Fault != nil {
			// The injector wraps the point where packets are offered to the
			// hop, so the loss filter (below) feeds faults, not the other
			// way around.
			entry = h.Fault.Attach(n.Fwd[i], entry, n.Pool)
		}
		if h.ForwardLoss != nil {
			n.Filters[i] = &netem.LossFilter{Pattern: h.ForwardLoss, Next: entry, Now: eng.Now, Pool: n.Pool}
			entry = n.Filters[i]
		}
		n.fwdEntry[i] = entry
	}
	return n
}

// hop names hop i's link in the direction tag says.
func (ln *linkNames) hop(tag string, i int) string {
	if ln.indexed {
		return tag + strconv.Itoa(i)
	}
	return tag
}

// NumHops returns the number of bottleneck hops (K); nodes are 0..K.
func (n *Net) NumHops() int { return len(n.Fwd) }

// PropRTT implements Fabric: the full-chain propagation RTT.
func (n *Net) PropRTT() sim.Time { return n.Cfg.propRTT() }

// access builds one path's two access links — out delivering to dst, in
// feeding entry — and registers them under the direction tag.
func (n *Net) access(flow int, tag string, entry, dst netem.Handler, delay sim.Time) (in, out *netem.Link) {
	out = netem.NewLink(n.Eng, accessRate, delay, netem.NewDropTail(1<<20), dst)
	out.Pool = n.Pool
	in = netem.NewLink(n.Eng, accessRate, delay, netem.NewDropTail(1<<20), entry)
	in.Pool = n.Pool
	if n.Cfg.Audit == nil && n.journeys == nil {
		return in, out
	}
	inName := fmt.Sprintf("access-%d-%s-in", flow, tag)
	outName := fmt.Sprintf("access-%d-%s-out", flow, tag)
	if n.Cfg.Audit != nil {
		n.Cfg.Audit.WatchLink(inName, in)
		n.Cfg.Audit.WatchLink(outName, out)
	}
	if n.journeys != nil {
		// The link delivering into the endpoint is the egress: end-to-end
		// attribution closes there.
		n.journeys.AttachLink(inName, in, false)
		n.journeys.AttachLink(outName, out, true)
	}
	return in, out
}

// PathFwd wires a forward path for flow entering the chain at node
// enter and leaving at node exit (0 <= enter < exit <= NumHops()):
// ingress access link, hops enter..exit-1, egress access link, dst.
// Connect is written on this and PathRev.
// Flow ids are unique per direction; duplicates panic.
func (n *Net) PathFwd(flow, enter, exit int, dst netem.Handler, accessDelay sim.Time) netem.Handler {
	if enter < 0 || exit <= enter || exit > n.NumHops() {
		panic(fmt.Sprintf("topology: forward span %d..%d outside chain 0..%d", enter, exit, n.NumHops()))
	}
	n.claim(n.fwdFlows, flow, "forward")
	in, out := n.access(flow, n.names.fwd, n.fwdEntry[enter], dst, accessDelay)
	n.fwdFlows[flow] = in
	// The router after the last hop of the span delivers to the egress
	// access link; routers at interior nodes forward into the next hop.
	n.fwdRt[exit-1].table.set(flow, out)
	for node := enter + 1; node < exit; node++ {
		n.fwdRt[node-1].table.set(flow, n.fwdEntry[node])
	}
	return in
}

// PathRev wires a reverse path for flow entering at node enter and
// leaving at node exit (NumHops() >= enter > exit >= 0), traversing
// hops enter-1..exit in the reverse direction.
func (n *Net) PathRev(flow, enter, exit int, dst netem.Handler, accessDelay sim.Time) netem.Handler {
	if exit < 0 || enter <= exit || enter > n.NumHops() {
		panic(fmt.Sprintf("topology: reverse span %d..%d outside chain 0..%d", enter, exit, n.NumHops()))
	}
	n.claim(n.revFlows, flow, "reverse")
	in, out := n.access(flow, n.names.rev, n.Rev[enter-1], dst, accessDelay)
	n.revFlows[flow] = in
	n.revRt[exit].table.set(flow, out)
	for node := exit + 1; node < enter; node++ {
		n.revRt[node].table.set(flow, n.Rev[node-1])
	}
	return in
}

// claim panics when flow is already wired on one direction.
func (n *Net) claim(flows map[int]*netem.Link, flow int, dir string) {
	if flows[flow] != nil {
		panic(fmt.Sprintf("topology: flow %d already registered on the %s direction", flow, dir))
	}
}

// Release hands what this net and its engine grew to the next scenario
// the process builds: the engine's timer list and queue storage, the
// packet pool's free packets, the buffer of every queue the net built
// and the RED generators that drew, once every packet in flight (in a
// pending timer, on a wire, queued) is back in the pool. Nothing built on
// the net — engine, links, endpoints — may run afterwards. A sweep calls
// it once a cell's results are read; a run that never releases pays
// nothing for it.
func (n *Net) Release() {
	n.Eng.Release(func(arg any) {
		if p, ok := arg.(*netem.Packet); ok {
			n.Pool.Put(p)
		}
	})
	for i := range n.Fwd {
		n.Fwd[i].Release()
		n.Rev[i].Release()
	}
	// Access links: each flow's ingress is in the registries, its egress
	// in a router's table beside hop links, which release twice harmlessly.
	for _, flows := range []map[int]*netem.Link{n.fwdFlows, n.revFlows} {
		for _, in := range flows {
			in.Release()
		}
	}
	for _, rt := range [][]demux{n.fwdRt, n.revRt} {
		for _, d := range rt {
			d.table.each(func(h netem.Handler) {
				if l, ok := h.(*netem.Link); ok {
					l.Release()
				}
			})
		}
	}
	for i := range n.srcs {
		n.srcs[i].park()
	}
	n.Pool.Release()
}

// Connect implements Fabric. The data path is built before the return
// path: links register with the auditor and the journey recorder in
// construction order, and manifests and goldens carry that order.
func (n *Net) Connect(flow int, snd, rcv Endpoint, over Span) {
	from, to, delay := n.resolve(over)
	snd.Attach(n.path(flow, from, to, rcv, delay), n.Pool)
	rcv.Attach(n.path(flow, to, from, snd, delay), n.Pool)
}

// ConnectOneWay implements Fabric.
func (n *Net) ConnectOneWay(flow int, src, sink Endpoint, over Span) {
	from, to, delay := n.resolve(over)
	sink.Attach(nil, n.Pool)
	src.Attach(n.path(flow, from, to, sink, delay), n.Pool)
}

// resolve turns a Span into node numbers and an access delay.
func (n *Net) resolve(s Span) (from, to int, delay sim.Time) {
	if s.From == 0 && s.To == 0 {
		s.To = Last
	}
	node := func(i int) int {
		if i == Last {
			return n.NumHops()
		}
		return i
	}
	delay = s.Access
	if delay == 0 {
		delay = accessDelay
	}
	return node(s.From), node(s.To), delay
}

// path wires one direction of a flow, picking the links by which way
// from..to points. An empty span falls to PathRev, which rejects it.
func (n *Net) path(flow, from, to int, dst netem.Handler, delay sim.Time) netem.Handler {
	if from < to {
		return n.PathFwd(flow, from, to, dst, delay)
	}
	return n.PathRev(flow, from, to, dst, delay)
}

// Counters adds the chain's core counters into into, each under its
// /metrics name: the engine's scheduler counters, both directions of
// every hop (link.<name>.arrivals, drops, departures and bytes, plus
// red.<name>.early_drops, forced_drops and marks where RED is in use),
// the pool's traffic (pool.gets, puts, reuses, guard_trips: zero for a
// net without a pool) and topo.unknown_flow_drops. Access links are
// deliberately omitted: sized not to drop, their counters only restate
// the hops'. Adding, not assigning, is what lets a sweep cell sum the
// nets it built into one map.
func (n *Net) Counters(into map[string]int64) {
	e, p := n.Eng, n.Pool
	if p == nil {
		p = &netem.PacketPool{}
	}
	for _, c := range [...]struct {
		name string
		v    int64
	}{
		{"engine.scheduled", int64(e.Scheduled())}, {"engine.fired", int64(e.Steps())},
		{"engine.rearms", int64(e.Rearms())}, {"engine.stops", int64(e.Stops())},
		{"pool.gets", p.Gets}, {"pool.puts", p.Puts}, {"pool.reuses", p.Reuses}, {"pool.guard_trips", p.GuardTrips},
		{"topo.unknown_flow_drops", n.UnknownFlowDrops},
	} {
		into[c.name] += c.v
	}
	for i := range n.Fwd {
		names := n.names.counters(i)
		for d, l := range [2]*netem.Link{n.Fwd[i], n.Rev[i]} {
			v, k := [7]int64{l.Stats.Arrivals, l.Stats.Drops, l.Stats.Departures, l.Stats.Bytes}, 4
			if r, ok := l.Q.(*netem.RED); ok {
				v[4], v[5], v[6], k = r.EarlyDrops, r.ForcedDrops, r.Marks, 7
			}
			for j := range k {
				into[names[d][j]] += v[j]
			}
		}
	}
}

// linkCounterNames wrap a hop link's name into its counters' names: the
// link's four, then its RED queue's three.
var linkCounterNames = [7][2]string{{"link.", ".arrivals"}, {"link.", ".drops"}, {"link.", ".departures"},
	{"link.", ".bytes"}, {"red.", ".early_drops"}, {"red.", ".forced_drops"}, {"red.", ".marks"}}

// counters returns hop i's counter names, forward then reverse, built
// the first time a net with this naming reads hop i: a process builds
// each name once, not once per net.
func (ln *linkNames) counters(i int) *[2][7]string {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	for j := len(ln.hopCounters); j <= i; j++ {
		c := new([2][7]string)
		for d, tag := range [2]string{ln.fwd, ln.rev} {
			for k, f := range linkCounterNames {
				c[d][k] = f[0] + ln.hop(tag, j) + f[1]
			}
		}
		ln.hopCounters = append(ln.hopCounters, c)
	}
	return ln.hopCounters[i]
}

// ObserveJourneys attaches a journey recorder to every link of the
// chain: both directions of every hop immediately, and each flow's
// access links as paths wire (call it before building paths). Hop
// names match the counters'. A nil recorder attaches nothing.
func (n *Net) ObserveJourneys(r *journey.Recorder) {
	n.journeys = r
	if r == nil {
		return
	}
	for i := range n.Fwd {
		r.AttachLink(n.names.hop(n.names.fwd, i), n.Fwd[i], false)
		r.AttachLink(n.names.hop(n.names.rev, i), n.Rev[i], false)
	}
}

// ObserveProbes registers every hop's RED queues with the sampler
// (no-op for DropTail hops, which have no EWMA state worth tracing).
func (n *Net) ObserveProbes(s *obs.Sampler) {
	for i := range n.Fwd {
		if r, ok := n.Fwd[i].Q.(*netem.RED); ok {
			s.Add("red."+n.names.hop(n.names.fwd, i), r)
		}
		if r, ok := n.Rev[i].Q.(*netem.RED); ok {
			s.Add("red."+n.names.hop(n.names.rev, i), r)
		}
	}
}
