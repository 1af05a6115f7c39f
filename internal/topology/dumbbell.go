// Package topology builds the simulation's networks with one builder: a
// chain of bottleneck hops, each a forward and a reverse link with its
// own queue, plus per-flow access links at the nodes (NewNet). The
// paper's single-bottleneck "dumbbell" — RED at the bottleneck, a
// reverse bottleneck so acknowledgments share a possibly congested
// return path — is the one-hop chain with the paper's defaults (New).
package topology

import (
	"fmt"
	"math/rand"
	"sync"

	"slowcc/internal/cc"
	"slowcc/internal/faults"
	"slowcc/internal/invariant"
	"slowcc/internal/netem"
	"slowcc/internal/sim"
)

// Config describes a dumbbell. Its substrate — delays, buffer, RED
// thresholds, access links — is the paper's, fixed by the constants
// below; a zero Rate takes the default 10 Mbps.
type Config struct {
	// Rate is the bottleneck bandwidth in bits per second
	// (default 10 Mbps).
	Rate float64
	// DropTail selects simple tail-drop instead of RED at the
	// bottleneck (used by the paper's ablation).
	DropTail bool
	// ECN makes both RED bottlenecks mark ECN-capable packets instead
	// of dropping them. Ignored with DropTail.
	ECN bool
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
	// outage windows and flapping drive the link's down/up state, and
	// its probabilistic faults (corruption, duplication, reordering)
	// wrap the point where packets are offered to it — after the
	// scripted ForwardLoss filter, so designed loss patterns see the
	// offered stream. A disabled injector attaches nothing and the
	// topology is wired exactly as without one.
	Fault *faults.Injector
	// Audit, when non-nil, registers every link the dumbbell creates
	// (both bottlenecks and all per-flow access links) with the given
	// invariant auditor, so packet conservation is checked at every
	// accounting transition of the whole topology, and makes routing
	// strict (NetConfig.Audit). Nil disables auditing at zero per-packet
	// cost.
	Audit *invariant.Auditor
	// DisablePool leaves Net.Pool nil, so every packet is heap
	// allocated and never reused — the pre-pooling behavior. It exists
	// for the determinism cross-check, which asserts pooled and unpooled
	// runs of the same scenario produce bit-identical metrics.
	DisablePool bool
}

// The paper's substrate, which every hop and access link is built on
// (testdata/substrate.tsv tabulates it against the paper). The
// propagation RTT of a flow across the dumbbell is
// 2*(2*accessDelay + hopDelay): 50 ms.
const (
	// hopDelay is a bottleneck hop's one-way propagation delay.
	hopDelay sim.Time = 0.021
	// accessRate is the per-flow access link bandwidth in bits per
	// second: effectively unconstrained.
	accessRate = 1e9
	// accessDelay is the one-way delay of an access link whose Span
	// leaves Access zero.
	accessDelay sim.Time = 0.002
	// pktSize is the packet size in bytes the bandwidth-delay product is
	// counted in.
	pktSize = cc.DefaultPktSize
	// queueFactor sizes a hop's buffer as a multiple of its BDP (per the
	// paper).
	queueFactor = 2.5
	// redMinFactor and redMaxFactor set the RED thresholds as multiples
	// of the hop BDP (per the paper).
	redMinFactor, redMaxFactor = 0.25, 1.25
)

// net is the one-hop chain c is shorthand for; NetConfig.fill writes
// the default rate.
func (c Config) net() NetConfig {
	return NetConfig{
		Hops: []Hop{{
			Rate: c.Rate, DropTail: c.DropTail, ECN: c.ECN,
			ForwardLoss: c.ForwardLoss, Fault: c.Fault,
		}},
		Seed: c.Seed, Audit: c.Audit, DisablePool: c.DisablePool,
	}
}

// New builds the paper's dumbbell on eng: a one-hop Net whose forward
// bottleneck is Fwd[0], reverse bottleneck Rev[0] and scripted loss
// stage Filters[0]. It differs from NewNet on the same one-hop config
// only in what the links are called: lr and rl, the names the paper's
// figures, the goldens and /metrics know them by.
func New(eng *sim.Engine, cfg Config) *Net {
	return build(eng, cfg.net(), dumbbellNames)
}

// routes is one demux's table from flow id to handler. Flow ids are
// small non-negative ints in a few clumps (AlgoSpec.Make numbers flows
// from 1, cross traffic sits in the 800s, reverse traffic and the
// scenario CBR in the 900s, flash crowds start at 10000), so the table
// holds the ids below lowIDs in one slice indexed by id, and every
// other id in a run of consecutive ids (the first run an id is in, or
// extends, serves it). Memory follows the ids registered, not the
// largest one, and nothing on the per-packet path hashes. Demuxes share
// the table by pointer: links capture their demux by value before any
// flow has registered.
type routes struct {
	// low is sized to the largest id below lowIDs registered: the ids
	// every scenario's main flows carry resolve in one bounds-checked
	// load.
	low  []netem.Handler
	runs []routeRun
}

// routeRun is the handlers of ids first, first+1, ...
type routeRun struct {
	first int
	hs    []netem.Handler
}

const lowIDs = 64

// maxFlowID bounds the ids a table accepts against a wild id.
const maxFlowID = 1 << 20

// get returns flow's handler, nil when none is registered — which
// includes every id outside the table, negative ones among them.
func (r *routes) get(flow int) netem.Handler {
	if uint(flow) < uint(len(r.low)) {
		return r.low[flow]
	}
	return r.high(flow)
}

func (r *routes) high(flow int) netem.Handler {
	for i := range r.runs {
		if j := uint(flow - r.runs[i].first); j < uint(len(r.runs[i].hs)) {
			return r.runs[i].hs[j]
		}
	}
	return nil
}

func (r *routes) set(flow int, h netem.Handler) {
	if flow < 0 || flow >= maxFlowID {
		panic(fmt.Sprintf("topology: flow id %d outside 0..%d", flow, maxFlowID-1))
	}
	if flow < lowIDs {
		if flow >= len(r.low) {
			r.low = append(r.low, make([]netem.Handler, flow+1-len(r.low))...)
		}
		r.low[flow] = h
		return
	}
	for i := range r.runs {
		run := &r.runs[i]
		switch j := flow - run.first; {
		case j >= 0 && j < len(run.hs):
			run.hs[j] = h
			return
		case j == len(run.hs):
			if j == cap(run.hs) { // double: append's gentler growth would cost a crowd 5x its size
				run.hs = append(make([]netem.Handler, 0, 2*j), run.hs...)
			}
			run.hs = append(run.hs, h)
			return
		}
	}
	if r.runs == nil {
		r.runs = make([]routeRun, 0, 4) // a matrix cell's clumps: cross, reverse, CBR
	}
	r.runs = append(r.runs, routeRun{first: flow, hs: []netem.Handler{h}})
}

// each calls fn on every registered handler.
func (r *routes) each(fn func(netem.Handler)) {
	for _, h := range r.low {
		if h != nil {
			fn(h)
		}
	}
	for _, run := range r.runs {
		for _, h := range run.hs {
			if h != nil {
				fn(h)
			}
		}
	}
}

// demux is the router at one node for one direction: it hands packets
// leaving a bottleneck to whatever the flow registered there — an
// access link, the next hop, or a sink.
type demux struct {
	table  *routes
	pool   *netem.PacketPool
	node   int
	drops  *int64
	strict bool
}

func (d demux) Handle(p *netem.Packet) {
	if h := d.table.get(p.Flow); h != nil {
		h.Handle(p)
		return
	}
	// No registration: counted, so misrouting leaves a trace, and fatal
	// on an audited net, where it cannot hide as a sink.
	*d.drops++
	if d.strict {
		panic(fmt.Sprintf("topology: packet for unregistered flow %d (kind %d, seq %d) at node %d's demux",
			p.Flow, p.Kind, p.Seq, d.node))
	}
	// The demux is the packet's final owner here, so it releases.
	d.pool.Put(p)
}

// buildQueue constructs one direction of hop h's bottleneck queue: RED
// with thresholds and capacity as multiples of the hop's
// bandwidth-delay product bdp in packets (the paper's sizing), drawing
// from src, or simple tail-drop.
func buildQueue(h Hop, bdp float64, src *lazySource) netem.Queue {
	capPkts := int(float64(queueFactor*bdp) + 0.5)
	if capPkts < 4 {
		capPkts = 4
	}
	if h.DropTail {
		return netem.NewDropTail(capPkts)
	}
	size := float64(pktSize) // a variable: the product rounds at run time
	txTime := size * 8 / h.Rate
	q := netem.NewRED(redMinFactor*bdp, redMaxFactor*bdp,
		capPkts, txTime, rand.New(src))
	q.MarkECN = h.ECN
	return q
}

// lazySource is rand.NewSource(seed) built on the first draw. A RED
// queue draws only while its average sits between the thresholds, which
// a lightly loaded direction (most reverse hops) never reaches, and a
// seeded generator is 607 words: a chain would otherwise pay 5 KB per
// queue for streams it never reads. The first draw takes a generator a
// released net left (Net.Release) and reseeds it in place when there is
// one. Either way the stream is the eager source's, bit for bit.
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (l *lazySource) source() rand.Source64 {
	if l.src == nil {
		if sim.Stocked() {
			l.src, _ = generators.Get().(rand.Source64)
		}
		if l.src != nil {
			l.src.Seed(l.seed)
		} else {
			l.src = rand.NewSource(l.seed).(rand.Source64)
		}
	}
	return l.src
}

// park hands a drawn generator to the next lazySource's first draw.
func (l *lazySource) park() {
	if l.src != nil {
		generators.Put(l.src)
		l.src = nil
		sim.MarkStocked()
	}
}

// generators holds the sources released nets' RED queues drew from.
var generators sync.Pool

func (l *lazySource) Int63() int64   { return l.source().Int63() }
func (l *lazySource) Uint64() uint64 { return l.source().Uint64() }

// Seed discards the stream and restarts it from seed, as a seeded
// source's Seed does.
func (l *lazySource) Seed(seed int64) { l.seed, l.src = seed, nil }
