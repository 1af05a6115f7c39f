package topology

import (
	"math"
	"strings"
	"testing"

	"slowcc/internal/faults"
	"slowcc/internal/invariant"
	"slowcc/internal/netem"
	"slowcc/internal/sim"
)

func TestNetChainDelivery(t *testing.T) {
	eng := sim.New(1)
	n := NewNet(eng, NetConfig{Hops: []Hop{{}, {}, {}}, Seed: 1})
	dst := &arrival{eng: eng}
	in := lr(n, 1, dst)
	in.Handle(&netem.Packet{Flow: 1, Kind: netem.Data, Size: 1000})
	eng.Run()
	if len(dst.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(dst.pkts))
	}
	// One-way: 2ms access + 3*21ms hops + 2ms access plus serialization.
	if dst.at[0] < 0.067 || dst.at[0] > 0.070 {
		t.Fatalf("one-way delivery at %v, want ~67ms + serialization", dst.at[0])
	}
	for i, l := range n.Fwd {
		if l.Stats.Departures != 1 {
			t.Fatalf("hop %d forwarded %d packets, want 1", i, l.Stats.Departures)
		}
	}
}

func TestNetReverseChainDelivery(t *testing.T) {
	eng := sim.New(1)
	n := NewNet(eng, NetConfig{Hops: []Hop{{}, {}}, Seed: 1})
	dst := &arrival{eng: eng}
	in := rl(n, 1, dst)
	in.Handle(&netem.Packet{Flow: 1, Kind: netem.Ack, Size: 40})
	eng.Run()
	if len(dst.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(dst.pkts))
	}
	for i, l := range n.Rev {
		if l.Stats.Departures != 1 {
			t.Fatalf("reverse hop %d forwarded %d packets, want 1", i, l.Stats.Departures)
		}
	}
}

func TestNetCrossTrafficSpansOnlyItsHops(t *testing.T) {
	eng := sim.New(1)
	n := NewNet(eng, NetConfig{Hops: []Hop{{}, {}, {}}, Seed: 1})
	dst := &arrival{eng: eng}
	// Parking-lot cross flow: enters at node 1, exits at node 2 — one
	// interior hop, never touching hops 0 or 2.
	in := n.PathFwd(5, 1, 2, dst, 0.002)
	in.Handle(&netem.Packet{Flow: 5, Kind: netem.Data, Size: 1000})
	eng.Run()
	if len(dst.pkts) != 1 {
		t.Fatalf("cross flow delivered %d packets, want 1", len(dst.pkts))
	}
	if n.Fwd[0].Stats.Arrivals != 0 || n.Fwd[2].Stats.Arrivals != 0 {
		t.Fatalf("cross flow leaked onto hops outside its span: hop0=%d hop2=%d arrivals",
			n.Fwd[0].Stats.Arrivals, n.Fwd[2].Stats.Arrivals)
	}
	if n.Fwd[1].Stats.Departures != 1 {
		t.Fatalf("cross flow's own hop forwarded %d, want 1", n.Fwd[1].Stats.Departures)
	}
}

// TestNetPerHopConservationAudit drives a 3-hop parking-lot chain with
// full-chain traffic, interior cross traffic, and reverse-path traffic,
// every link registered with the invariant auditor — the per-hop packet
// conservation law must hold at every accounting transition.
func TestNetPerHopConservationAudit(t *testing.T) {
	eng := sim.New(1)
	a := invariant.New(eng)
	n := NewNet(eng, NetConfig{
		Hops:  []Hop{{Rate: 1e6}, {Rate: 1e6}, {Rate: 1e6}},
		Seed:  3,
		Audit: a,
	})
	fwdSink := &arrival{eng: eng}
	in := lr(n, 1, fwdSink)
	rin := rl(n, 1, &arrival{eng: eng})
	crossIn := n.PathFwd(2, 1, 2, &arrival{eng: eng}, 0.002)
	revCrossIn := n.PathRev(2, 3, 1, &arrival{eng: eng}, 0.002)
	for i := int64(0); i < 200; i++ {
		i := i
		eng.At(float64(i)*0.002, func() {
			in.Handle(&netem.Packet{Flow: 1, Kind: netem.Data, Seq: i, Size: 1000})
			rin.Handle(&netem.Packet{Flow: 1, Kind: netem.Ack, Size: 40})
			crossIn.Handle(&netem.Packet{Flow: 2, Kind: netem.Data, Seq: i, Size: 1000})
			revCrossIn.Handle(&netem.Packet{Flow: 2, Kind: netem.Data, Seq: i, Size: 1000})
		})
	}
	eng.Run()
	if err := a.Err(); err != nil {
		t.Fatalf("healthy parking-lot chain breached invariants: %v", err)
	}
	if len(fwdSink.pkts) == 0 {
		t.Fatal("no packets delivered end to end")
	}
	// The 2x overload on hop 1 (chain + cross traffic into 1 Mbps) must
	// actually have exercised queueing/drops for the audit to mean much.
	if n.Fwd[1].Stats.Drops == 0 {
		t.Fatal("overloaded interior hop never dropped; scenario too gentle to audit")
	}
	// Every hop link and the cross traffic's access link are watched: each
	// one, tripped, adds its own violation.
	watched := append(append([]*netem.Link{crossIn.(*netem.Link)}, n.Fwd...), n.Rev...)
	for i, l := range watched {
		trip(l)
		if got := len(a.Violations()); got != i+1 {
			t.Fatalf("link %d not registered with the auditor: %d violations after tripping it, want %d", i, got, i+1)
		}
	}
}

func TestNetUnknownFlowCountedAndObserved(t *testing.T) {
	eng := sim.New(1)
	n := NewNet(eng, NetConfig{Hops: []Hop{{}, {}}, Seed: 1})
	in := lr(n, 1, &arrival{eng: eng})
	// Flow 99 is routable nowhere: it dies at node 1's router, counted.
	in.Handle(&netem.Packet{Flow: 99, Kind: netem.Data, Size: 100})
	eng.Run()
	if n.UnknownFlowDrops != 1 {
		t.Fatalf("UnknownFlowDrops = %d, want 1", n.UnknownFlowDrops)
	}
	counters := map[string]int64{}
	n.Counters(counters)
	if got := counters["topo.unknown_flow_drops"]; got != 1 {
		t.Fatalf("observed unknown-flow drops = %d, want 1", got)
	}
}

func TestNetStrictRoutingPanics(t *testing.T) {
	eng := sim.New(1)
	n := NewNet(eng, NetConfig{Hops: []Hop{{}}, Seed: 1, Audit: invariant.New(eng)})
	in := lr(n, 1, &arrival{eng: eng})
	in.Handle(&netem.Packet{Flow: 99, Kind: netem.Data, Size: 100})
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("an audited net did not panic on an unregistered flow")
		}
		if msg, ok := v.(string); !ok || !strings.Contains(msg, "flow 99") {
			t.Fatalf("strict panic does not identify the flow: %v", v)
		}
	}()
	eng.Run()
}

func TestNetHeterogeneousAccessDelays(t *testing.T) {
	eng := sim.New(1)
	n := NewNet(eng, NetConfig{Hops: []Hop{{Rate: 100e6}}, Seed: 2})
	fast := &arrival{eng: eng}
	slow := &arrival{eng: eng}
	fastSrc, slowSrc := &arrival{eng: eng}, &arrival{eng: eng}
	n.Connect(1, fastSrc, fast, Span{Access: 0.002})
	n.Connect(2, slowSrc, slow, Span{Access: 0.027})
	fastSrc.out.Handle(&netem.Packet{Flow: 1, Kind: netem.Data, Size: 1000})
	slowSrc.out.Handle(&netem.Packet{Flow: 2, Kind: netem.Data, Size: 1000})
	eng.Run()
	if fast.at[0] > 0.027 {
		t.Fatalf("fast path delivery at %v, want ~25ms", fast.at[0])
	}
	if slow.at[0] < 0.074 || slow.at[0] > 0.078 {
		t.Fatalf("slow path delivery at %v, want ~75ms", slow.at[0])
	}
}

func TestNetConnectOneWayRoutesAcrossChain(t *testing.T) {
	eng := sim.New(1)
	n := NewNet(eng, NetConfig{Hops: []Hop{{}, {}, {}}, Seed: 1})
	src, sink := &arrival{eng: eng}, &arrival{eng: eng}
	n.ConnectOneWay(5, src, sink, Span{})
	// Cross traffic rides an interior span: hop 1 only.
	cross, crossSink := &arrival{eng: eng}, &arrival{eng: eng}
	n.ConnectOneWay(6, cross, crossSink, Span{From: 1, To: 2})
	src.out.Handle(&netem.Packet{Flow: 5, Kind: netem.Data, Size: 1000})
	cross.out.Handle(&netem.Packet{Flow: 6, Kind: netem.Data, Size: 1000})
	eng.Run()
	if len(sink.pkts) != 1 || len(crossSink.pkts) != 1 {
		t.Fatalf("sinks got %d and %d packets, want 1 each; unknown drops %d",
			len(sink.pkts), len(crossSink.pkts), n.UnknownFlowDrops)
	}
	if got := []int64{n.Fwd[0].Stats.Arrivals, n.Fwd[1].Stats.Arrivals, n.Fwd[2].Stats.Arrivals}; got[0] != 1 || got[1] != 2 || got[2] != 1 {
		t.Fatalf("hop arrivals %v, want [1 2 1]: the interior span must load hop 1 only", got)
	}
}

func TestConnectRejectsSpansOutsideTheChain(t *testing.T) {
	for _, sp := range []Span{{From: 1, To: 1}, {From: 0, To: 3}, {From: 3, To: 0}, {From: -2, To: 1}} {
		func() {
			eng := sim.New(1)
			n := NewNet(eng, NetConfig{Hops: []Hop{{}, {}}, Seed: 1})
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "outside chain") {
					t.Errorf("Connect over %+v: recovered %q, want a span panic", sp, msg)
				}
			}()
			n.Connect(1, &arrival{eng: eng}, &arrival{eng: eng}, sp)
		}()
	}
}

func TestNetZeroDelayHopExpressible(t *testing.T) {
	cfg := NetConfig{Hops: []Hop{{Delay: ExplicitZero}, {}}, AccessDelay: ExplicitZero}
	// Chain propagation RTT: 2*(2*0 + 0 + 21ms) = 42ms.
	if got := propRTT(cfg); got < 0.0419 || got > 0.0421 {
		t.Fatalf("PropRTT with explicit-zero delays = %v, want 42ms", got)
	}
	eng := sim.New(1)
	n := NewNet(eng, cfg)
	dst := &arrival{eng: eng}
	in := lr(n, 1, dst)
	in.Handle(&netem.Packet{Flow: 1, Kind: netem.Data, Size: 1000})
	eng.Run()
	if len(dst.pkts) != 1 {
		t.Fatal("zero-delay chain delivered nothing")
	}
	if dst.at[0] > 0.023 {
		t.Fatalf("delivery at %v through a 21ms chain with zero access delay; sentinel not honored", dst.at[0])
	}
}

// A built net resolves its configuration once: a hop delay given as
// ExplicitZero stays zero in the RTT the net reports and in the RTT its
// queues are sized from (a second fill would read the resolved 0 as
// "take the 21 ms default").
func TestNetExplicitZeroHopDelaySizesFromResolvedRTT(t *testing.T) {
	n := NewNet(sim.New(1), NetConfig{Hops: []Hop{{Delay: ExplicitZero, DropTail: true}}})
	// 2*(2*2ms + 0) = 8 ms.
	if got := n.PropRTT(); math.Abs(got-0.008) > 1e-12 {
		t.Fatalf("PropRTT() = %v, want 0.008 (2*2*AccessDelay)", got)
	}
	// BDP = 10 Mbps * 8 ms / 8000 bits = 10 packets; buffer 2.5 BDP.
	if got := n.Fwd[0].Q.(*netem.DropTail).Cap; got != 25 {
		t.Fatalf("queue holds %d packets, want 25 (2.5 x the BDP of the 8 ms RTT)", got)
	}
}

func TestNetPerHopFaultInjection(t *testing.T) {
	// Faults attach per hop: an outage on the middle hop must stop
	// deliveries across it while the injector reports activity, and the
	// chain must still audit clean.
	eng := sim.New(1)
	a := invariant.New(eng)
	cfg := NetConfig{Hops: []Hop{{}, {}, {}}, Seed: 4, Audit: a}
	cfg.Hops[1].Fault = faults.New(eng, faults.Config{
		Seed:    4,
		Windows: []faults.Window{{At: 0.1, Dur: 0.15}},
	})
	n := NewNet(eng, cfg)
	dst := &arrival{eng: eng}
	in := lr(n, 1, dst)
	for i := int64(0); i < 50; i++ {
		i := i
		eng.At(float64(i)*0.01, func() {
			in.Handle(&netem.Packet{Flow: 1, Kind: netem.Data, Seq: i, Size: 1000})
		})
	}
	eng.Run()
	if len(dst.pkts) == 0 {
		t.Fatal("no deliveries at all; outage should only cover part of the run")
	}
	if n.Fwd[1].Stats.DownDrops == 0 && n.Fwd[1].Transitions == 0 {
		t.Fatal("middle-hop injector left no trace on the middle hop")
	}
	if n.Fwd[0].Transitions != 0 || n.Fwd[2].Transitions != 0 {
		t.Fatal("fault leaked onto hops it was not attached to")
	}
	if err := a.Err(); err != nil {
		t.Fatalf("faulted chain breached invariants: %v", err)
	}
}

// Release reaches every queue the net built, each hop's and both access
// links of every path, and leaves them empty. The access links are found
// here by where they attach: the ingress is what an endpoint was handed,
// the egress what the exit router delivers through.
func TestNetReleaseEmptiesEveryQueue(t *testing.T) {
	eng := sim.New(1)
	n := NewNet(eng, NetConfig{Hops: []Hop{{}, {}}, Seed: 1})
	snd, rcv, src, sink := &arrival{eng: eng}, &arrival{eng: eng}, &arrival{eng: eng}, &arrival{eng: eng}
	n.Connect(1, snd, rcv, Span{})
	n.ConnectOneWay(801, src, sink, Span{From: 1, To: 2})
	links := append(append([]*netem.Link{}, n.Fwd...), n.Rev...)
	for _, ep := range []*arrival{snd, rcv, src} {
		links = append(links, ep.out.(*netem.Link))
	}
	for _, h := range []netem.Handler{
		n.fwdRt[1].table.get(1), n.revRt[0].table.get(1), n.fwdRt[1].table.get(801),
	} {
		links = append(links, h.(*netem.Link))
	}
	for _, l := range links {
		l.Q.Enqueue(&netem.Packet{Size: 1000}, 0)
	}
	n.Release()
	for i, l := range links {
		if l.Q.Len() != 0 {
			t.Fatalf("link %d of %d still queues %d packets after Release", i, len(links), l.Q.Len())
		}
	}
	if eng.Pending() != 0 {
		t.Fatalf("the net's engine holds %d timers after Release", eng.Pending())
	}
}
