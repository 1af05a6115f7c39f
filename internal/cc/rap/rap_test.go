package rap

import (
	"testing"

	"slowcc/internal/cc"
	"slowcc/internal/netem"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

func wire(eng *sim.Engine, d *topology.Net, cfg Config) (*Sender, *cc.AckReceiver) {
	rcv := cc.NewAckReceiver(eng, cfg.Flow, nil)
	snd := NewSender(eng, nil, cfg)
	d.Connect(cfg.Flow, snd, rcv, topology.Span{})
	return snd, rcv
}

func TestRAPFillsBottleneck(t *testing.T) {
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 10e6, Seed: 21})
	snd, rcv := wire(eng, d, Config{Flow: 1})
	eng.At(0, snd.Start)
	eng.RunUntil(30)
	util := float64(rcv.Stats().BytesRecv) * 8 / (10e6 * 30)
	if util < 0.75 {
		t.Fatalf("RAP achieved %.1f%% utilization, want > 75%%", util*100)
	}
	if snd.Stats().LossEvents == 0 {
		t.Fatal("saturating RAP flow must see loss events")
	}
}

func TestRAPReactsAtMostOncePerRTT(t *testing.T) {
	// Feed the sender a burst of gap ACKs within one RTT: only one
	// decrease may be taken.
	eng := sim.New(1)
	snd := NewSender(eng, netem.HandlerFunc(func(*netem.Packet) {}), Config{Flow: 1})
	eng.At(0, snd.Start)
	eng.RunUntil(0.01)
	snd.srtt, snd.hasRTT = 0.05, true
	snd.inSS = false
	snd.w = 64
	for i := int64(0); i < 5; i++ {
		snd.Handle(&netem.Packet{Kind: netem.Ack, AckSeq: 10 + 3*i, Echo: eng.Now() - 0.05})
	}
	if snd.Stats().LossEvents != 1 {
		t.Fatalf("took %d decreases for losses within one RTT, want 1", snd.Stats().LossEvents)
	}
	if snd.RatePktsPerRTT() != 32 {
		t.Fatalf("rate = %v after one halving from 64, want 32", snd.RatePktsPerRTT())
	}
}

func TestRAPKeepsSendingWithoutAcks(t *testing.T) {
	// The defining (mis)feature: no self-clocking. With the forward path
	// dead, RAP keeps transmitting, decaying only at its configured
	// speed.
	eng := sim.New(1)
	blackhole := netem.HandlerFunc(func(*netem.Packet) {})
	snd := NewSender(eng, blackhole, Config{Flow: 1, B: 1.0 / 256})
	eng.At(0, snd.Start)
	eng.RunUntil(5)
	sentAt5 := snd.Stats().PktsSent
	eng.RunUntil(10)
	if snd.Stats().PktsSent == sentAt5 {
		t.Fatal("RAP went silent without ACKs; rate-based sender must keep pacing")
	}
}

func TestRAPStarvationDecreaseIsSlowForSmallB(t *testing.T) {
	run := func(b float64) float64 {
		eng := sim.New(1)
		blackhole := netem.HandlerFunc(func(*netem.Packet) {})
		snd := NewSender(eng, blackhole, Config{Flow: 1, B: b})
		snd.srtt, snd.hasRTT = 0.05, true
		snd.w = 128
		snd.inSS = false
		eng.At(0, snd.Start)
		eng.RunUntil(3) // pure starvation: no ACKs at all
		return snd.RatePktsPerRTT()
	}
	fast := run(0.5)
	slow := run(1.0 / 256)
	if slow <= fast {
		t.Fatalf("RAP(1/256) rate %v should stay above RAP(1/2) rate %v under starvation", slow, fast)
	}
	if fast > 2 {
		t.Fatalf("RAP(1/2) rate %v after 3s of starvation; should have collapsed", fast)
	}
}

func TestRAPTwoFlowsRoughlyFair(t *testing.T) {
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 10e6, Seed: 23})
	s1, r1 := wire(eng, d, Config{Flow: 1})
	s2, r2 := wire(eng, d, Config{Flow: 2})
	eng.At(0, s1.Start)
	eng.At(0, s2.Start)
	eng.RunUntil(60)
	b1, b2 := float64(r1.Stats().BytesRecv), float64(r2.Stats().BytesRecv)
	if ratio := b1 / b2; ratio < 0.6 || ratio > 1.7 {
		t.Fatalf("two RAP flows split %.2f:1, want near 1:1", ratio)
	}
}

func TestRAPStopSilences(t *testing.T) {
	eng := sim.New(1)
	blackhole := netem.HandlerFunc(func(*netem.Packet) {})
	snd := NewSender(eng, blackhole, Config{Flow: 1})
	eng.At(0, snd.Start)
	eng.At(1, snd.Stop)
	eng.RunUntil(1)
	n := snd.Stats().PktsSent
	eng.RunUntil(3)
	if snd.Stats().PktsSent != n {
		t.Fatal("RAP kept sending after Stop")
	}
}
