package tcp

import (
	"testing"

	"slowcc/internal/cc"
	"slowcc/internal/netem"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

func wireECN(eng *sim.Engine, d *topology.Net, flow int) (*Sender, *cc.AckReceiver) {
	rcv := cc.NewAckReceiver(eng, flow, nil)
	snd := NewSender(eng, nil, Config{Flow: flow, ECN: true})
	d.Connect(flow, snd, rcv, topology.Span{})
	return snd, rcv
}

func TestECNFlowAvoidsDrops(t *testing.T) {
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 10e6, ECN: true, Seed: 61})
	snd, rcv := wireECN(eng, d, 1)
	eng.At(0, snd.Start)
	// Slow-start overshoot can overflow the physical buffer even on a
	// marking queue, and NewReno repairs those holes one RTT at a time;
	// steady state afterwards must be retransmission-free.
	eng.RunUntil(10)
	rtxAfterStartup := snd.Stats().Rtx
	eng.RunUntil(30)
	util := float64(rcv.Stats().BytesRecv) * 8 / (10e6 * 30)
	if util < 0.8 {
		t.Fatalf("ECN TCP achieved %.1f%% utilization, want > 80%%", util*100)
	}
	red := d.Fwd[0].Q.(*netem.RED)
	if red.Marks == 0 {
		t.Fatal("marking bottleneck never marked a saturating ECN flow")
	}
	if snd.Stats().LossEvents == 0 {
		t.Fatal("sender never reacted to echoed marks")
	}
	if snd.Stats().Rtx != rtxAfterStartup {
		t.Fatalf("%d retransmissions in steady state on a marking path, want 0",
			snd.Stats().Rtx-rtxAfterStartup)
	}
}

func TestECNReactionAtMostOncePerRTT(t *testing.T) {
	eng := sim.New(1)
	snd := NewSender(eng, netem.HandlerFunc(func(*netem.Packet) {}), Config{Flow: 1, ECN: true})
	eng.At(0, snd.Start)
	eng.RunUntil(0.01)
	snd.srtt, snd.hasRTT = 0.05, true
	snd.cwnd = 40
	snd.ssthresh = 1
	// Two echoed marks on advancing ACKs within one RTT: one decrease
	// only. (Dup ACKs would exercise fast retransmit instead.)
	for i := int64(1); i <= 2; i++ {
		snd.Handle(&netem.Packet{Kind: netem.Ack, CumAck: i, AckSeq: i - 1,
			Echo: eng.Now() - 0.05, ECNEcho: true})
	}
	if snd.Cwnd() < 19 || snd.Cwnd() > 21 {
		t.Fatalf("cwnd = %v after marks within one RTT, want one halving to ~20", snd.Cwnd())
	}
	if snd.Stats().LossEvents != 1 {
		t.Fatalf("%d loss events for marks within one RTT, want 1", snd.Stats().LossEvents)
	}
}

func TestECNTwoFlowsFair(t *testing.T) {
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 10e6, ECN: true, Seed: 62})
	s1, r1 := wireECN(eng, d, 1)
	s2, r2 := wireECN(eng, d, 2)
	eng.At(0, s1.Start)
	eng.At(0, s2.Start)
	eng.RunUntil(60)
	b1, b2 := float64(r1.Stats().BytesRecv), float64(r2.Stats().BytesRecv)
	if ratio := b1 / b2; ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("two ECN TCP flows split %.2f:1, want near 1:1", ratio)
	}
	_, _ = s1, s2
}
