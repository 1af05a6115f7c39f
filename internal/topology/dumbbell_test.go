package topology

import (
	"math"
	"strings"
	"testing"

	"slowcc/internal/invariant"
	"slowcc/internal/netem"
	"slowcc/internal/obs/journey"
	"slowcc/internal/sim"
)

// bdpPkts is the bottleneck bandwidth-delay product, in packets, that a
// dumbbell built from c sizes its queue from.
func bdpPkts(c Config) float64 {
	nc := c.net()
	nc.fill()
	return nc.hopBDPPkts(0)
}

// propRTT is the propagation RTT a net built from c reports.
func propRTT(c NetConfig) sim.Time {
	c.fill()
	return c.propRTT()
}

func TestDefaultsMatchPaper(t *testing.T) {
	cfg := Config{}
	if got := propRTT(cfg.net()); math.Abs(got-0.05) > 1e-9 {
		t.Fatalf("default propagation RTT = %v, want 50ms", got)
	}
	// 10 Mbps * 50ms / 8 / 1000B = 62.5 packets.
	if got := bdpPkts(cfg); math.Abs(got-62.5) > 1e-9 {
		t.Fatalf("default BDP = %v packets, want 62.5", got)
	}
}

// arrival is a test endpoint: it records what reaches it and, once
// connected, where its own packets would go.
type arrival struct {
	at   []sim.Time
	pkts []*netem.Packet
	eng  *sim.Engine
	out  netem.Handler
	pool *netem.PacketPool
}

func (a *arrival) Handle(p *netem.Packet) {
	a.at = append(a.at, a.eng.Now())
	a.pkts = append(a.pkts, p)
}

func (a *arrival) Attach(out netem.Handler, pool *netem.PacketPool) { a.out, a.pool = out, pool }

// lr and rl wire one direction of flow over the whole chain with the
// default access delay and return its ingress.
func lr(n *Net, flow int, dst netem.Handler) netem.Handler {
	return n.PathFwd(flow, 0, n.NumHops(), dst, n.Cfg.AccessDelay)
}

func rl(n *Net, flow int, dst netem.Handler) netem.Handler {
	return n.PathRev(flow, n.NumHops(), 0, dst, n.Cfg.AccessDelay)
}

func TestPathDeliveryAndDelay(t *testing.T) {
	eng := sim.New(1)
	d := New(eng, Config{Rate: 10e6, Seed: 1})
	dst := &arrival{eng: eng}
	in := lr(d, 7, dst)
	in.Handle(&netem.Packet{Flow: 7, Kind: netem.Data, Size: 1000})
	eng.Run()
	if len(dst.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(dst.pkts))
	}
	// One-way: 2ms + 21ms + 2ms propagation plus serialization.
	if dst.at[0] < 0.025 || dst.at[0] > 0.027 {
		t.Fatalf("one-way delivery at %v, want ~25ms + serialization", dst.at[0])
	}
}

func TestDemuxSeparatesFlows(t *testing.T) {
	eng := sim.New(1)
	d := New(eng, Config{Seed: 1})
	a := &arrival{eng: eng}
	b := &arrival{eng: eng}
	inA := lr(d, 1, a)
	inB := lr(d, 2, b)
	inA.Handle(&netem.Packet{Flow: 1, Kind: netem.Data, Size: 100})
	inB.Handle(&netem.Packet{Flow: 2, Kind: netem.Data, Size: 100})
	eng.Run()
	if len(a.pkts) != 1 || a.pkts[0].Flow != 1 {
		t.Fatalf("flow 1 receiver got %d packets", len(a.pkts))
	}
	if len(b.pkts) != 1 || b.pkts[0].Flow != 2 {
		t.Fatalf("flow 2 receiver got %d packets", len(b.pkts))
	}
}

func TestUnknownFlowDiscarded(t *testing.T) {
	eng := sim.New(1)
	d := New(eng, Config{Seed: 1})
	in := lr(d, 3, &arrival{eng: eng})
	// None of these has a registration — inside the route table's range
	// (below the registered id), just past it, negative, and far beyond
	// anything a table could index: must not panic, just vanish.
	unknown := []int{0, 2, 4, 99, -1, math.MinInt, math.MaxInt}
	for _, flow := range unknown {
		in.Handle(&netem.Packet{Flow: flow, Kind: netem.Data, Size: 100})
	}
	eng.Run()
	// ... but not silently: the drop is counted and observable.
	if d.UnknownFlowDrops != int64(len(unknown)) {
		t.Fatalf("UnknownFlowDrops = %d, want %d", d.UnknownFlowDrops, len(unknown))
	}
	counters := map[string]int64{}
	d.Counters(counters)
	if got := counters["topo.unknown_flow_drops"]; got != int64(len(unknown)) {
		t.Fatalf("observed unknown-flow drops = %d, want %d", got, len(unknown))
	}
}

// Registration is where a wild flow id is a bug: it must fail by name,
// not by indexing out of range or by allocating a table to reach it.
func TestFlowIDOutOfRangePanics(t *testing.T) {
	for _, flow := range []int{-1, maxFlowID, math.MaxInt} {
		eng := sim.New(1)
		d := New(eng, Config{Seed: 1})
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "flow id") {
					t.Errorf("PathLR(%d): recovered %q, want a flow-id panic", flow, msg)
				}
			}()
			lr(d, flow, &arrival{eng: eng})
		}()
	}
}

func TestStrictRoutingPanics(t *testing.T) {
	eng := sim.New(1)
	d := New(eng, Config{Seed: 1, Audit: invariant.New(eng)})
	in := lr(d, 1, &arrival{eng: eng})
	in.Handle(&netem.Packet{Flow: 99, Kind: netem.Data, Size: 100})
	defer func() {
		if recover() == nil {
			t.Fatal("an audited net did not panic on an unregistered flow")
		}
	}()
	eng.Run()
}

// TestExplicitZeroSentinels covers the configs the default-on-zero
// fill() used to make inexpressible: zero bottleneck delay, zero access
// delay, and a RED min-threshold of 0.
func TestExplicitZeroSentinels(t *testing.T) {
	if got := propRTT(Config{Delay: ExplicitZero}.net()); math.Abs(got-0.008) > 1e-9 {
		t.Fatalf("PropRTT with a zero-delay bottleneck = %v, want 8ms (access only)", got)
	}
	if got := propRTT(Config{AccessDelay: ExplicitZero}.net()); math.Abs(got-0.042) > 1e-9 {
		t.Fatalf("PropRTT with zero access delay = %v, want 42ms (bottleneck only)", got)
	}
	eng := sim.New(1)
	d := New(eng, Config{REDMinFactor: ExplicitZero, Seed: 1})
	q := d.Fwd[0].Q.(*netem.RED)
	if q.MinThresh != 0 {
		t.Fatalf("REDMinFactor sentinel produced MinThresh %v, want 0", q.MinThresh)
	}
	if q.MaxThresh == 0 {
		t.Fatal("sentinel leaked into MaxThresh")
	}
	// NaN works as a sentinel too.
	d2 := New(eng, Config{Delay: math.NaN(), Seed: 2})
	if d2.Cfg.Hops[0].Delay != 0 {
		t.Fatalf("NaN delay sentinel resolved to %v, want 0", d2.Cfg.Hops[0].Delay)
	}
	// And a packet actually crosses a zero-delay bottleneck quickly.
	dst := &arrival{eng: eng}
	in := lr(d2, 1, dst)
	in.Handle(&netem.Packet{Flow: 1, Kind: netem.Data, Size: 1000})
	eng.Run()
	if len(dst.pkts) != 1 || dst.at[0] > 0.006 {
		t.Fatalf("zero-delay bottleneck delivered %d packets at %v, want 1 at ~4ms", len(dst.pkts), dst.at)
	}
}

// TestDefaultConfigUnchangedBySentinels pins that ordinary configs are
// byte-identical to the pre-sentinel behavior: zero still means the
// paper default.
func TestDefaultConfigUnchangedBySentinels(t *testing.T) {
	c := New(sim.New(1), Config{}).Cfg
	if h := c.Hops[0]; h.Delay != 0.021 || c.AccessDelay != 0.002 || h.REDMinFactor != 0.25 {
		t.Fatalf("zero-value defaults changed: Delay=%v AccessDelay=%v REDMinFactor=%v", h.Delay, c.AccessDelay, h.REDMinFactor)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	eng := sim.New(1)
	d := New(eng, Config{Seed: 1})
	lr(d, 1, &arrival{eng: eng})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate PathLR registration did not panic")
		}
	}()
	lr(d, 1, &arrival{eng: eng})
}

func TestReverseDirectionIndependent(t *testing.T) {
	eng := sim.New(1)
	d := New(eng, Config{Seed: 1})
	fwd := &arrival{eng: eng}
	rev := &arrival{eng: eng}
	// Same flow id on both directions is legal (data one way, ACKs the
	// other).
	inF := lr(d, 1, fwd)
	inR := rl(d, 1, rev)
	inF.Handle(&netem.Packet{Flow: 1, Kind: netem.Data, Size: 1000})
	inR.Handle(&netem.Packet{Flow: 1, Kind: netem.Ack, Size: 40})
	eng.Run()
	if len(fwd.pkts) != 1 || len(rev.pkts) != 1 {
		t.Fatalf("fwd %d, rev %d; want 1 each", len(fwd.pkts), len(rev.pkts))
	}
}

func TestBottleneckEnforcesRate(t *testing.T) {
	eng := sim.New(1)
	d := New(eng, Config{Rate: 1e6, Seed: 1}) // 1 Mbps: 125 pkt/s
	dst := &arrival{eng: eng}
	in := lr(d, 1, dst)
	// Offer 2 Mbps for 2 seconds.
	var send func()
	i := int64(0)
	send = func() {
		in.Handle(&netem.Packet{Flow: 1, Kind: netem.Data, Seq: i, Size: 1000})
		i++
		if eng.Now() < 2 {
			eng.After(0.004, send)
		}
	}
	eng.At(0, send)
	eng.RunUntil(3)
	got := float64(len(dst.pkts)) * 1000 * 8 / 2 // bps over the 2s offered window (+drain)
	if got > 1.3e6 {
		t.Fatalf("delivered %v bps through a 1 Mbps bottleneck", got)
	}
	if d.Fwd[0].Stats.Drops == 0 {
		t.Fatal("2x overload never dropped at the bottleneck")
	}
}

func TestDropTailOption(t *testing.T) {
	eng := sim.New(1)
	d := New(eng, Config{Rate: 1e6, DropTail: true, Seed: 1})
	if _, ok := d.Fwd[0].Q.(*netem.DropTail); !ok {
		t.Fatalf("DropTail config produced %T", d.Fwd[0].Q)
	}
	d2 := New(eng, Config{Rate: 1e6, Seed: 1})
	if _, ok := d2.Fwd[0].Q.(*netem.RED); !ok {
		t.Fatalf("default config produced %T, want RED", d2.Fwd[0].Q)
	}
}

func TestConnectOneWayReceivesCBRStyleTraffic(t *testing.T) {
	eng := sim.New(1)
	d := New(eng, Config{Seed: 1})
	src, sink := &arrival{eng: eng}, &arrival{eng: eng}
	d.ConnectOneWay(5, src, sink, Span{})
	if src.pool != d.Pool || sink.pool != d.Pool || sink.out != nil {
		t.Fatalf("one-way ends attached wrong: src pool %p, sink pool %p out %v, want pool %p and no way back",
			src.pool, sink.pool, sink.out, d.Pool)
	}
	src.out.Handle(&netem.Packet{Flow: 5, Kind: netem.Data, Size: 1000})
	eng.Run()
	if len(sink.pkts) != 1 {
		t.Fatalf("sink got %d packets, want 1", len(sink.pkts))
	}
	// Nothing was wired back: the reverse direction still has flow 5 free.
	rl(d, 5, &arrival{eng: eng})
}

// Connect builds the data path before the return path (auditor and
// journey registration follow construction order), hands both ends the
// shared pool, and runs a reversed span over the reverse links.
func TestConnectWiresBothWaysInOrder(t *testing.T) {
	eng := sim.New(1)
	d := New(eng, Config{Seed: 1, Audit: invariant.New(eng)})
	rec := journey.New()
	d.ObserveJourneys(rec)
	snd, rcv := &arrival{eng: eng}, &arrival{eng: eng}
	d.Connect(1, snd, rcv, Span{})
	rsnd, rrcv := &arrival{eng: eng}, &arrival{eng: eng}
	d.Connect(2, rsnd, rrcv, Span{From: Last})
	var order []string
	for _, h := range rec.Hops() {
		order = append(order, h.Name)
	}
	want := "lr rl access-1-lr-in access-1-lr-out access-1-rl-in access-1-rl-out " +
		"access-2-rl-in access-2-rl-out access-2-lr-in access-2-lr-out"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("links registered as\n%s\nwant\n%s", got, want)
	}
	for _, e := range []*arrival{snd, rcv, rsnd, rrcv} {
		if e.pool != d.Pool || e.out == nil {
			t.Fatalf("endpoint left unattached: pool %p out %v", e.pool, e.out)
		}
	}
	snd.out.Handle(&netem.Packet{Flow: 1, Kind: netem.Data, Size: 1000})
	rcv.out.Handle(&netem.Packet{Flow: 1, Kind: netem.Ack, Size: 40})
	rsnd.out.Handle(&netem.Packet{Flow: 2, Kind: netem.Data, Size: 1000})
	rrcv.out.Handle(&netem.Packet{Flow: 2, Kind: netem.Ack, Size: 40})
	eng.Run()
	for i, e := range []*arrival{rcv, snd, rrcv, rsnd} {
		if len(e.pkts) != 1 {
			t.Fatalf("end %d got %d packets, want 1", i, len(e.pkts))
		}
	}
	if d.Fwd[0].Stats.Arrivals != 2 || d.Rev[0].Stats.Arrivals != 2 {
		t.Fatalf("bottlenecks saw fwd %d rev %d arrivals, want 2 and 2: a reversed span must send data over rl",
			d.Fwd[0].Stats.Arrivals, d.Rev[0].Stats.Arrivals)
	}
}

func TestSpanAccessDelayChangesRTT(t *testing.T) {
	eng := sim.New(1)
	d := New(eng, Config{Rate: 100e6, Seed: 2})
	fast := &arrival{eng: eng}
	slow := &arrival{eng: eng}
	fastSrc, slowSrc := &arrival{eng: eng}, &arrival{eng: eng}
	d.ConnectOneWay(1, fastSrc, fast, Span{Access: 0.002})
	d.ConnectOneWay(2, slowSrc, slow, Span{Access: 0.027})
	fastSrc.out.Handle(&netem.Packet{Flow: 1, Kind: netem.Data, Size: 1000})
	slowSrc.out.Handle(&netem.Packet{Flow: 2, Kind: netem.Data, Size: 1000})
	eng.Run()
	// One-way: 2*access + 21ms bottleneck (+ serialization).
	if fast.at[0] > 0.027 {
		t.Fatalf("fast path delivery at %v, want ~25ms", fast.at[0])
	}
	if slow.at[0] < 0.074 || slow.at[0] > 0.078 {
		t.Fatalf("slow path delivery at %v, want ~75ms", slow.at[0])
	}
}

func TestECNConfigPropagates(t *testing.T) {
	eng := sim.New(1)
	d := New(eng, Config{ECN: true, Seed: 3})
	q := d.Fwd[0].Q.(*netem.RED)
	if !q.MarkECN {
		t.Fatal("forward bottleneck missing ECN")
	}
	q2 := d.Rev[0].Q.(*netem.RED)
	if !q2.MarkECN {
		t.Fatal("reverse bottleneck missing ECN")
	}
}

func TestForwardLossFilterInstalled(t *testing.T) {
	eng := sim.New(1)
	d := New(eng, Config{ForwardLoss: &netem.CountPattern{Intervals: []int{0}}, Seed: 4})
	if d.Filters[0] == nil {
		t.Fatal("filter not installed")
	}
	sink := &arrival{eng: eng}
	in := lr(d, 1, sink)
	in.Handle(&netem.Packet{Flow: 1, Kind: netem.Data, Size: 1000})
	in.Handle(&netem.Packet{Flow: 1, Kind: netem.Ack, Size: 40})
	eng.Run()
	// Drop-every-data-packet pattern: only the ACK survives.
	if len(sink.pkts) != 1 || sink.pkts[0].Kind != netem.Ack {
		t.Fatalf("filter let through %d packets", len(sink.pkts))
	}
	if d.Filters[0].Drops != 1 {
		t.Fatalf("filter drops = %d, want 1", d.Filters[0].Drops)
	}
}

func TestBDPScalesWithRate(t *testing.T) {
	lo := bdpPkts(Config{Rate: 1e6})
	hi := bdpPkts(Config{Rate: 100e6})
	if hi != 100*lo {
		t.Fatalf("BDP not linear in rate: %v vs %v", lo, hi)
	}
}

func TestTinyLinkMinimumQueue(t *testing.T) {
	eng := sim.New(1)
	// 64 kbps: BDP under a packet; queue must still hold a few packets.
	d := New(eng, Config{Rate: 64e3, Seed: 5})
	sink := &arrival{eng: eng}
	in := lr(d, 1, sink)
	for i := int64(0); i < 4; i++ {
		in.Handle(&netem.Packet{Flow: 1, Kind: netem.Data, Seq: i, Size: 1000})
	}
	eng.Run()
	if len(sink.pkts) == 0 {
		t.Fatal("tiny link delivered nothing; minimum queue too small")
	}
}

// trip leaves an idle link unable to account for one packet across one
// settle point (a down/up flap), so whoever audits it records exactly
// one conservation violation.
func trip(l *netem.Link) {
	l.Stats.Arrivals++
	l.SetDown(netem.DownQueue)
	l.SetUp()
	l.Stats.Arrivals--
}

// TestAuditWiresEveryLink builds an audited dumbbell, pushes traffic
// through a full forward/reverse path, and checks that both bottlenecks
// and the per-flow access links carry the auditor, that a healthy
// topology reports zero violations — and that a violation on any of one
// bidirectional flow's six links names that link and no other.
func TestAuditWiresEveryLink(t *testing.T) {
	eng := sim.New(1)
	a := invariant.New(eng)
	d := New(eng, Config{Rate: 1e6, Seed: 3, Audit: a})
	sink := &arrival{eng: eng}
	in := lr(d, 1, sink)
	rin := rl(d, 1, &arrival{eng: eng})
	for i := int64(0); i < 50; i++ {
		i := i
		eng.At(float64(i)*0.001, func() {
			in.Handle(&netem.Packet{Flow: 1, Kind: netem.Data, Seq: i, Size: 1000})
			rin.Handle(&netem.Packet{Flow: 1, Kind: netem.Ack, Size: 40})
		})
	}
	eng.Run()
	if err := a.Err(); err != nil {
		t.Fatalf("healthy dumbbell breached invariants: %v", err)
	}
	if len(sink.pkts) == 0 {
		t.Fatal("no packets delivered")
	}

	links := []*netem.Link{
		d.Fwd[0], d.Rev[0], in.(*netem.Link), rin.(*netem.Link),
		d.fwdRt[0].table.get(1).(*netem.Link), d.revRt[0].table.get(1).(*netem.Link),
	}
	seen := map[string]int{}
	for i, l := range links {
		trip(l)
		vs := a.Violations()
		if len(vs) != i+1 {
			t.Fatalf("link %d: %d violations recorded, want %d (is the link watched?)", i, len(vs), i+1)
		}
		name := vs[i].Name
		if j, dup := seen[name]; dup {
			t.Fatalf("links %d and %d both report as %q", j, i, name)
		}
		seen[name] = i
	}
}
