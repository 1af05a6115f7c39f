package tcp

import (
	"math"
	"testing"

	"slowcc/internal/cc"
	"slowcc/internal/netem"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

func TestAIMDPolicyStandardTCP(t *testing.T) {
	p := NewAIMD(0.5)
	if math.Abs(p.A-1) > 1e-12 {
		t.Fatalf("NewAIMD(0.5).A = %v, want 1", p.A)
	}
	// Per-ACK increase of 1/W sums to ~1 packet per RTT.
	if got := p.Increase(10); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("Increase(10) = %v, want 0.1", got)
	}
	if got := p.Decrease(10); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Decrease(10) = %v, want 5", got)
	}
}

func TestAIMDDecreaseFloor(t *testing.T) {
	p := NewAIMD(0.875)
	if got := p.Decrease(1.2); got < 1 {
		t.Fatalf("Decrease must floor at 1 packet, got %v", got)
	}
}

// wire connects a TCP sender/receiver pair over a dumbbell and returns
// both.
func wire(eng *sim.Engine, d *topology.Net, cfg Config) (*Sender, *cc.AckReceiver) {
	rcv := cc.NewAckReceiver(eng, cfg.Flow, nil)
	snd := NewSender(eng, nil, cfg)
	d.Connect(cfg.Flow, snd, rcv, topology.Span{})
	return snd, rcv
}

func TestSingleFlowFillsBottleneck(t *testing.T) {
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 10e6, Seed: 1})
	snd, rcv := wire(eng, d, Config{Flow: 1})
	eng.At(0, snd.Start)
	eng.RunUntil(30)

	util := float64(rcv.Stats().BytesRecv) * 8 / (10e6 * 30)
	if util < 0.80 {
		t.Fatalf("single TCP flow achieved %.1f%% utilization, want > 80%%", util*100)
	}
	if util > 1.0 {
		t.Fatalf("utilization %v exceeds 1: accounting bug", util)
	}
	if snd.Stats().LossEvents == 0 {
		t.Fatal("a saturating flow must hit RED drops eventually")
	}
}

func TestSelfClockingConservation(t *testing.T) {
	// Packet conservation: *new* data leaves only when the window
	// permits. (Inflight may exceed cwnd transiently right after a
	// decrease — the sender then simply stops sending new data.)
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 5e6, Seed: 2})
	rcv := cc.NewAckReceiver(eng, 1, nil)
	snd := NewSender(eng, nil, Config{Flow: 1})
	d.Connect(1, snd, rcv, topology.Span{})
	path := snd.Out
	var maxSeq int64 = -1
	violations := 0
	snd.Out = netem.HandlerFunc(func(p *netem.Packet) {
		if p.Seq > maxSeq {
			maxSeq = p.Seq
			// inflight was incremented by this very transmission.
			if float64(snd.inflight()) > snd.Cwnd()+1 {
				violations++
			}
		}
		path.Handle(p)
	})
	eng.At(0, snd.Start)
	eng.RunUntil(20)
	if violations > 0 {
		t.Fatalf("%d new-data transmissions beyond the window: self-clocking violated", violations)
	}
	if maxSeq < 1000 {
		t.Fatalf("flow barely progressed (maxSeq=%d); test not meaningful", maxSeq)
	}
}

func TestShortTransferCompletes(t *testing.T) {
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 10e6, Seed: 3})
	doneAt := sim.Time(-1)
	cfg := Config{Flow: 1, MaxPkts: 10}
	cfg.OnDone = func() { doneAt = eng.Now() }
	snd, rcv := wire(eng, d, cfg)
	eng.At(0, snd.Start)
	eng.RunUntil(10)

	if !snd.done {
		t.Fatal("10-packet transfer did not complete in 10s on an idle link")
	}
	if doneAt < 0 {
		t.Fatal("OnDone not invoked")
	}
	// 10 packets with IW=2 takes ~3 round trips: well under a second.
	if doneAt > 1 {
		t.Fatalf("transfer took %vs, want well under 1s", doneAt)
	}
	if rcv.Stats().UniqueBytes != 10*1000 {
		t.Fatalf("receiver got %d unique bytes, want 10000", rcv.Stats().UniqueBytes)
	}
	if snd.Stats().PktsSent != 10 {
		t.Fatalf("sent %d packets for a lossless 10-packet transfer", snd.Stats().PktsSent)
	}
}

func TestFastRetransmitOnIsolatedLoss(t *testing.T) {
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 10e6, Seed: 4})
	cfg := Config{Flow: 1}
	rcv := cc.NewAckReceiver(eng, 1, nil)
	snd := NewSender(eng, nil, cfg)
	// Insert a scripted one-shot loss between sender and path: drop the
	// 30th data packet only.
	d.Connect(1, snd, rcv, topology.Span{})
	filt := &netem.LossFilter{
		Pattern: &netem.CountPattern{Intervals: []int{29, 1 << 30}},
		Next:    snd.Out,
		Now:     eng.Now,
	}
	snd.Out = filt
	eng.At(0, snd.Start)
	eng.RunUntil(5)

	if snd.Stats().Rtx == 0 {
		t.Fatal("isolated loss never retransmitted")
	}
	if snd.Stats().Timeouts != 0 {
		t.Fatalf("isolated loss should be repaired by fast retransmit, saw %d timeouts", snd.Stats().Timeouts)
	}
	if rcv.NextExpected() < 100 {
		t.Fatalf("flow stalled after loss: receiver only at seq %d", rcv.NextExpected())
	}
}

func TestTimeoutAndBackoffUnderBlackout(t *testing.T) {
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 10e6, Seed: 5})
	rcv := cc.NewAckReceiver(eng, 1, nil)
	snd := NewSender(eng, nil, Config{Flow: 1})
	// After half a second, everything dies (a total outage).
	d.Connect(1, snd, rcv, topology.Span{})
	filt := &netem.LossFilter{
		Pattern: &netem.TimedPattern{Phases: []netem.TimedPhase{
			{Duration: 0.5, EveryNth: 0},
			{Duration: 1e9, EveryNth: 1},
		}},
		Next: snd.Out,
		Now:  eng.Now,
	}
	snd.Out = filt
	eng.At(0, snd.Start)
	eng.RunUntil(60)

	if snd.Stats().Timeouts < 3 {
		t.Fatalf("blackout produced %d timeouts, want several with backoff", snd.Stats().Timeouts)
	}
	if snd.Cwnd() != 1 {
		t.Fatalf("cwnd = %v during blackout, want 1", snd.Cwnd())
	}
	// Exponential backoff: over 60s with doubling from ~0.2s the sender
	// must have far fewer timeouts than 60/minRTO = 300.
	if snd.Stats().Timeouts > 40 {
		t.Fatalf("%d timeouts in 60s: backoff not exponential", snd.Stats().Timeouts)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 10e6, Seed: 6})
	s1, r1 := wire(eng, d, Config{Flow: 1})
	s2, r2 := wire(eng, d, Config{Flow: 2})
	eng.At(0, s1.Start)
	eng.At(0, s2.Start)
	eng.RunUntil(60)

	b1, b2 := float64(r1.Stats().BytesRecv), float64(r2.Stats().BytesRecv)
	ratio := b1 / b2
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("two identical TCP flows split %.2f:1, want near 1:1", ratio)
	}
	_ = s1
	_ = s2
}

func TestSlowVariantIsSmoother(t *testing.T) {
	// TCP(1/8) must take more, smaller decreases than TCP(1/2):
	// fewer/more loss events is workload-dependent, but its window floor
	// across a run with losses must stay higher relative to the peak.
	run := func(b float64) (minRate, maxRate float64) {
		eng := sim.New(1)
		d := topology.New(eng, topology.Config{Rate: 10e6, Seed: 7})
		snd, rcv := wire(eng, d, Config{Flow: 1, Policy: NewAIMD(b)})
		eng.At(0, snd.Start)
		eng.RunUntil(10) // warm up
		minRate, maxRate = math.Inf(1), 0
		last := rcv.Stats().BytesRecv
		var sample func()
		sample = func() {
			cur := rcv.Stats().BytesRecv
			rate := float64(cur - last)
			last = cur
			if rate > 0 {
				minRate = math.Min(minRate, rate)
				maxRate = math.Max(maxRate, rate)
			}
			eng.After(0.5, sample)
		}
		eng.After(0.5, sample)
		eng.RunUntil(60)
		return minRate, maxRate
	}
	min12, max12 := run(0.5)
	min18, max18 := run(0.125)
	if min18/max18 <= min12/max12 {
		t.Fatalf("TCP(1/8) rate band [%v,%v] not tighter than TCP(1/2) [%v,%v]",
			min18, max18, min12, max12)
	}
}

func TestStopCancelsActivity(t *testing.T) {
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 10e6, Seed: 8})
	snd, _ := wire(eng, d, Config{Flow: 1})
	eng.At(0, snd.Start)
	eng.At(5, snd.Stop)
	eng.RunUntil(6)
	sent := snd.Stats().PktsSent
	eng.RunUntil(20)
	if snd.Stats().PktsSent != sent {
		t.Fatal("sender kept transmitting after Stop")
	}
}

func TestRTTEstimateReasonable(t *testing.T) {
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 10e6, Seed: 9})
	snd, _ := wire(eng, d, Config{Flow: 1})
	eng.At(0, snd.Start)
	eng.RunUntil(5)
	prop := d.PropRTT()
	if snd.srtt < prop || snd.srtt > prop+0.2 {
		t.Fatalf("SRTT = %v, want within [%v, %v+queueing]", snd.srtt, prop, prop)
	}
}
