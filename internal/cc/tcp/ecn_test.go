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

func TestDelayedAcksStillComplete(t *testing.T) {
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 10e6, Seed: 63})
	rcv := cc.NewAckReceiver(eng, 1, nil)
	rcv.DelayedAcks = true
	snd := NewSender(eng, nil, Config{Flow: 1})
	d.Connect(1, snd, rcv, topology.Span{})
	eng.At(0, snd.Start)
	eng.RunUntil(30)
	util := float64(rcv.Stats().BytesRecv) * 8 / (10e6 * 30)
	if util < 0.7 {
		t.Fatalf("delayed-ACK TCP achieved %.1f%% utilization, want > 70%%", util*100)
	}
}

func TestDelayedAcksHalveAckVolume(t *testing.T) {
	eng := sim.New(1)
	count := func(delayed bool) (acks int64) {
		sink := netem.HandlerFunc(func(p *netem.Packet) {
			if p.Kind == netem.Ack {
				acks++
			}
		})
		r := cc.NewAckReceiver(eng, 1, sink)
		r.DelayedAcks = delayed
		for i := int64(0); i < 100; i++ {
			r.Handle(&netem.Packet{Kind: netem.Data, Seq: i, Size: 1000})
		}
		return
	}
	every := count(false)
	delayed := count(true)
	if every != 100 {
		t.Fatalf("immediate mode sent %d acks for 100 packets", every)
	}
	if delayed < 45 || delayed > 55 {
		t.Fatalf("delayed mode sent %d acks for 100 packets, want ~50", delayed)
	}
}

func TestDelayedAckFlushTimer(t *testing.T) {
	eng := sim.New(1)
	var acks int
	sink := netem.HandlerFunc(func(p *netem.Packet) {
		if p.Kind == netem.Ack {
			acks++
		}
	})
	r := cc.NewAckReceiver(eng, 1, sink)
	r.DelayedAcks = true
	r.Handle(&netem.Packet{Kind: netem.Data, Seq: 0, Size: 1000})
	if acks != 0 {
		t.Fatal("single packet acked immediately in delayed mode")
	}
	eng.RunUntil(0.2)
	if acks != 1 {
		t.Fatalf("flush timer produced %d acks, want 1 within 200ms", acks)
	}
}
