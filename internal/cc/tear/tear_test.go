package tear

import (
	"testing"

	"slowcc/internal/netem"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

func wire(eng *sim.Engine, d *topology.Net, flow int) (*Sender, *Receiver) {
	rcv := NewReceiver(eng, flow, nil)
	snd := NewSender(eng, nil, flow)
	d.Connect(flow, snd, rcv, topology.Span{})
	return snd, rcv
}

func TestTEARFillsReasonableShare(t *testing.T) {
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 10e6, Seed: 51})
	snd, rcv := wire(eng, d, 1)
	eng.At(0, snd.Start)
	eng.RunUntil(60)
	util := float64(rcv.Stats().BytesRecv) * 8 / (10e6 * 60)
	if util < 0.5 {
		t.Fatalf("TEAR achieved %.1f%% utilization alone on the link, want > 50%%", util*100)
	}
	if util > 1.01 {
		t.Fatalf("utilization %v exceeds capacity", util)
	}
}

func TestTEARIsSlowlyResponsive(t *testing.T) {
	// A single loss event halves the *emulated* window but moves the
	// smoothed (reported) window by only about Alpha of the halving —
	// the entire point of receiver-side averaging.
	eng := sim.New(1)
	r := NewReceiver(eng, 1, &fbSink{})
	r.gotAny = true
	r.maxSeq = 10
	r.rtt = 0.05
	r.cwnd = 20
	r.ssthresh = 1
	r.smoothW = 20
	r.haveW = true
	before := r.Rate()
	// Arrival with a hole: a loss event.
	r.Handle(&netem.Packet{Kind: netem.Data, Seq: 15, Size: 1000, SenderRTT: 0.05})
	if r.cwnd != 10 {
		t.Fatalf("emulated window %v after loss, want halved to 10", r.cwnd)
	}
	after := r.Rate()
	drop := (before - after) / before
	if drop <= 0 || drop > 0.15 {
		t.Fatalf("one loss moved the reported rate by %.0f%%; want a gentle ~%.0f%%",
			drop*100, r.Alpha*50)
	}
}

type fbSink struct{ fbs []*netem.TFRCFeedback }

func (f *fbSink) Handle(p *netem.Packet) {
	if p.FB != nil {
		f.fbs = append(f.fbs, p.FB)
	}
}

func TestTEARReceiverEmulatesSlowStart(t *testing.T) {
	eng := sim.New(1)
	r := NewReceiver(eng, 1, &fbSink{})
	for i := int64(0); i < 10; i++ {
		r.Handle(&netem.Packet{Kind: netem.Data, Seq: i, Size: 1000, SenderRTT: 0.05})
	}
	// Initial cwnd 2, +1 per arrival in slow-start (9 counted arrivals
	// after the first).
	if r.Window() != 11 {
		t.Fatalf("emulated cwnd = %v after 9 slow-start arrivals, want 11", r.Window())
	}
}

func TestTEARReceiverCongestionAvoidanceIsSublinear(t *testing.T) {
	eng := sim.New(1)
	r := NewReceiver(eng, 1, &fbSink{})
	r.gotAny = true
	r.maxSeq = 0
	r.ssthresh = 1 // force congestion avoidance
	r.cwnd = 10
	for i := int64(1); i <= 10; i++ {
		r.Handle(&netem.Packet{Kind: netem.Data, Seq: i, Size: 1000, SenderRTT: 0.05})
	}
	// +1/W per arrival: ten arrivals from W=10 adds about 1.
	if r.Window() < 10.9 || r.Window() > 11.1 {
		t.Fatalf("emulated cwnd = %v, want ~11 after one RTT's worth of CA arrivals", r.Window())
	}
}

func TestTEARSmoothedWindowTrailsActual(t *testing.T) {
	eng := sim.New(1)
	r := NewReceiver(eng, 1, &fbSink{})
	r.gotAny = true
	r.maxSeq = 0
	r.ssthresh = 1
	r.cwnd = 10
	r.smoothW = 10
	r.haveW = true
	// Grow through several emulated rounds.
	for i := int64(1); i <= 200; i++ {
		r.Handle(&netem.Packet{Kind: netem.Data, Seq: i, Size: 1000, SenderRTT: 0.05})
	}
	if r.smoothW >= r.Window() {
		t.Fatalf("smoothW %v should trail the growing cwnd %v", r.smoothW, r.Window())
	}
	if r.smoothW <= 10 {
		t.Fatal("smoothW never moved despite sustained growth")
	}
}

func TestTEARSenderFollowsFeedback(t *testing.T) {
	eng := sim.New(1)
	snd := NewSender(eng, netem.HandlerFunc(func(*netem.Packet) {}), 1)
	eng.At(0, snd.Start)
	eng.RunUntil(0.01)
	snd.Handle(&netem.Packet{Kind: netem.Feedback, SentAt: eng.Now() - 0.01,
		FB: &netem.TFRCFeedback{RecvRate: 250e3}})
	if snd.Rate() != 250e3 {
		t.Fatalf("sender rate %v, want 250e3 as dictated", snd.Rate())
	}
}

func TestTEARSenderDecaysWithoutFeedback(t *testing.T) {
	eng := sim.New(1)
	snd := NewSender(eng, netem.HandlerFunc(func(*netem.Packet) {}), 1)
	eng.At(0, snd.Start)
	eng.RunUntil(0.01)
	snd.Handle(&netem.Packet{Kind: netem.Feedback, SentAt: eng.Now(),
		FB: &netem.TFRCFeedback{RecvRate: 1e6}})
	eng.RunUntil(10) // silence
	if snd.Rate() >= 1e6/2 {
		t.Fatalf("rate %v after 10s of feedback silence, want decayed", snd.Rate())
	}
}

func TestTEARStopSilences(t *testing.T) {
	eng := sim.New(1)
	snd := NewSender(eng, netem.HandlerFunc(func(*netem.Packet) {}), 1)
	eng.At(0, snd.Start)
	eng.At(1, snd.Stop)
	eng.RunUntil(1)
	n := snd.Stats().PktsSent
	eng.RunUntil(5)
	if snd.Stats().PktsSent != n {
		t.Fatal("TEAR sender kept sending after Stop")
	}
}

func TestTEARTwoFlowsCoexistWithTCPWithoutStarving(t *testing.T) {
	// TCP-compatibility sanity: TEAR must neither starve nor crush a
	// competing TCP flow (within a generous band; TEAR is the most
	// approximate of the paper's algorithms).
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 10e6, Seed: 52})
	tearSnd, tearRcv := wire(eng, d, 1)
	tcpFlow := newTCPFlow(eng, d, 2)
	eng.At(0, tearSnd.Start)
	eng.At(0, tcpFlow.start)
	eng.RunUntil(90)
	tearB := float64(tearRcv.Stats().BytesRecv)
	tcpB := float64(tcpFlow.recvBytes())
	ratio := tearB / tcpB
	if ratio < 0.2 || ratio > 5 {
		t.Fatalf("TEAR:TCP split %.2f:1, want within [0.2, 5]", ratio)
	}
}
