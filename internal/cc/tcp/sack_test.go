package tcp

import (
	"testing"

	"slowcc/internal/cc"
	"slowcc/internal/netem"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

func sackHarness() *harness {
	h := &harness{eng: sim.New(1)}
	h.snd = NewSender(h.eng, netem.HandlerFunc(func(p *netem.Packet) {
		h.sent = append(h.sent, p)
	}), Config{Flow: 1, SACK: true})
	h.eng.At(0, h.snd.Start)
	h.eng.RunUntil(0.001)
	return h
}

func TestSACKRetransmitsAllHolesPromptly(t *testing.T) {
	h := sackHarness()
	h.snd.ssthresh = 1
	h.snd.cwnd = 16
	h.snd.trySend() // 0..15 outstanding
	h.ack(1, 0)
	// Packets 1, 3, 5 lost; 2, 4, 6 arrive: three dupacks naming the
	// survivors, then further dupacks as 7..14 arrive, draining the pipe
	// so the window admits the remaining retransmissions.
	sentBefore := len(h.sent)
	for _, sacked := range []int64{2, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14} {
		h.ack(1, sacked)
	}
	var rtxSeqs []int64
	for _, p := range h.sent[sentBefore:] {
		if p.Seq < 7 {
			rtxSeqs = append(rtxSeqs, p.Seq)
		}
	}
	// SACK recovery must retransmit exactly the holes 1, 3, 5 within
	// this single round trip (not one per RTT as NewReno does), never a
	// sacked sequence.
	want := map[int64]bool{1: true, 3: true, 5: true}
	for _, seq := range rtxSeqs {
		if !want[seq] {
			t.Fatalf("retransmitted sacked or in-order seq %d", seq)
		}
		delete(want, seq)
	}
	if len(want) != 0 {
		t.Fatalf("holes not retransmitted within the recovery round: %v (rtx %v)", want, rtxSeqs)
	}
}

func TestSACKNeverRetransmitsSackedData(t *testing.T) {
	h := sackHarness()
	h.snd.ssthresh = 1
	h.snd.cwnd = 32
	h.snd.trySend()
	h.ack(1, 0)
	// Lose only packet 1; everything else arrives.
	for seq := int64(2); seq <= 20; seq++ {
		h.ack(1, seq)
	}
	rtxOf := map[int64]int{}
	for _, p := range h.sent {
		rtxOf[p.Seq]++
	}
	if rtxOf[1] != 2 { // original + one retransmission
		t.Fatalf("hole 1 transmitted %d times, want 2", rtxOf[1])
	}
	// Neither the sacked sequences nor the merely-in-flight tail may be
	// retransmitted: only the actual hole.
	for seq := int64(2); seq <= 33; seq++ {
		if rtxOf[seq] > 1 {
			t.Fatalf("seq %d retransmitted despite not being lost", seq)
		}
	}
}

func TestSACKRecoveryExitCleansState(t *testing.T) {
	h := sackHarness()
	h.snd.ssthresh = 1
	h.snd.cwnd = 16
	h.snd.trySend()
	h.ack(1, 0)
	h.ack(1, 2)
	h.ack(1, 3)
	h.ack(1, 4)
	if !h.snd.inRecovery {
		t.Fatal("not in recovery")
	}
	h.ack(h.snd.recover+1, h.snd.recover)
	if h.snd.inRecovery {
		t.Fatal("recovery did not exit on full ACK")
	}
	if len(h.snd.sacked) != 0 {
		t.Fatalf("%d stale sack entries after full ACK", len(h.snd.sacked))
	}
	if h.snd.rtxOut != 0 {
		t.Fatalf("rtxOut = %d after recovery", h.snd.rtxOut)
	}
}

func TestSACKFlowRecoversFasterThanNewReno(t *testing.T) {
	// Burst losses: drop 20 packets in a row once. SACK repairs in ~1
	// RTT; NewReno needs ~20. Compare goodput stall time directly.
	run := func(sack bool) sim.Time {
		eng := sim.New(1)
		d := topology.New(eng, topology.Config{Rate: 10e6, Seed: 91})
		rcv := cc.NewAckReceiver(eng, 1, nil)
		snd := NewSender(eng, nil, Config{Flow: 1, SACK: sack})
		d.Connect(1, snd, rcv, topology.Span{})
		filt := &netem.LossFilter{
			// Pass 200, then drop 20 in a row, then lossless.
			Pattern: &netem.CountPattern{Intervals: []int{
				200, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1 << 30,
			}},
			Next: snd.Out,
			Now:  eng.Now,
		}
		snd.Out = filt
		eng.At(0, snd.Start)
		// Find when the receiver's in-order point passes the burst.
		var recoveredAt sim.Time = -1
		var check func()
		check = func() {
			if recoveredAt < 0 && rcv.NextExpected() > 230 {
				recoveredAt = eng.Now()
				return
			}
			eng.After(0.01, check)
		}
		eng.At(0.01, check)
		eng.RunUntil(30)
		if recoveredAt < 0 {
			t.Fatalf("sack=%v never recovered the burst", sack)
		}
		return recoveredAt
	}
	sackT := run(true)
	renoT := run(false)
	if sackT >= renoT {
		t.Fatalf("SACK recovered at %v, NewReno at %v; SACK must be faster on burst loss", sackT, renoT)
	}
}

func TestSACKFillsBottleneck(t *testing.T) {
	// A single SACK flow under early-dropping RED shows the classic
	// sawtooth under-fill (halving from ~1.3x BDP leaves the pipe
	// short); the aggregate case the paper's scenarios use must still
	// fill the link.
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 10e6, Seed: 92})
	var rcvs []*cc.AckReceiver
	for i := 1; i <= 5; i++ {
		rcv := cc.NewAckReceiver(eng, i, nil)
		snd := NewSender(eng, nil, Config{Flow: i, SACK: true})
		d.Connect(i, snd, rcv, topology.Span{})
		eng.At(0, snd.Start)
		rcvs = append(rcvs, rcv)
	}
	// Skip the startup transient; measure converged utilization.
	eng.RunUntil(10)
	var base int64
	for _, r := range rcvs {
		base += r.Stats().BytesRecv
	}
	eng.RunUntil(60)
	var total int64
	for _, r := range rcvs {
		total += r.Stats().BytesRecv
	}
	util := float64(total-base) * 8 / (10e6 * 50)
	if util < 0.85 {
		t.Fatalf("five SACK TCP flows achieved %.1f%% utilization, want > 85%%", util*100)
	}
}

func TestSACKSingleFlowSanity(t *testing.T) {
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 10e6, Seed: 93})
	rcv := cc.NewAckReceiver(eng, 1, nil)
	snd := NewSender(eng, nil, Config{Flow: 1, SACK: true})
	d.Connect(1, snd, rcv, topology.Span{})
	eng.At(0, snd.Start)
	eng.RunUntil(30)
	util := float64(rcv.Stats().BytesRecv) * 8 / (10e6 * 30)
	if util < 0.55 {
		t.Fatalf("single SACK flow achieved %.1f%% utilization, want > 55%%", util*100)
	}
	// Timeouts must stay rare: SACK repairs bursts without RTO.
	if snd.Stats().Timeouts > 5 {
		t.Fatalf("%d timeouts in 30s for a SACK flow", snd.Stats().Timeouts)
	}
}
