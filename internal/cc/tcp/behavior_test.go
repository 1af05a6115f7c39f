package tcp

import (
	"math"
	"testing"

	"slowcc/internal/netem"
	"slowcc/internal/sim"
)

// harness drives a Sender with hand-crafted ACKs, capturing every packet
// it emits.
type harness struct {
	eng  *sim.Engine
	snd  *Sender
	sent []*netem.Packet
}

func newHarness(cfg Config) *harness {
	h := &harness{eng: sim.New(1)}
	h.snd = NewSender(h.eng, netem.HandlerFunc(func(p *netem.Packet) {
		h.sent = append(h.sent, p)
	}), cfg)
	h.eng.At(0, h.snd.Start)
	h.eng.RunUntil(0.001)
	return h
}

// ack delivers a cumulative ACK acknowledging the packet with sequence
// ackSeq.
func (h *harness) ack(cum, ackSeq int64) {
	h.snd.Handle(&netem.Packet{
		Kind: netem.Ack, CumAck: cum, AckSeq: ackSeq,
		Echo: h.eng.Now() - 0.05,
	})
}

func TestInitialWindowTransmissions(t *testing.T) {
	h := newHarness(Config{Flow: 1, InitialCwnd: 2})
	if len(h.sent) != 2 {
		t.Fatalf("sent %d packets at start, want initial window of 2", len(h.sent))
	}
	if h.sent[0].Seq != 0 || h.sent[1].Seq != 1 {
		t.Fatalf("initial sequences %d,%d", h.sent[0].Seq, h.sent[1].Seq)
	}
}

func TestSlowStartDoublesPerRTT(t *testing.T) {
	h := newHarness(Config{Flow: 1, InitialCwnd: 2})
	// ACK the initial window: each new ACK adds 1 in slow start.
	h.ack(1, 0)
	h.ack(2, 1)
	if h.snd.Cwnd() != 4 {
		t.Fatalf("cwnd = %v after acking IW, want 4", h.snd.Cwnd())
	}
	if len(h.sent) != 6 { // 2 initial + 4 new
		t.Fatalf("sent %d, want 6", len(h.sent))
	}
}

func TestCongestionAvoidanceLinear(t *testing.T) {
	h := newHarness(Config{Flow: 1})
	h.snd.ssthresh = 1 // leave slow start immediately
	h.snd.cwnd = 10
	h.snd.trySend()
	start := h.snd.Cwnd()
	// One window's worth of ACKs ~ +1 packet total.
	for i := int64(1); i <= 10; i++ {
		h.ack(i, i-1)
	}
	if got := h.snd.Cwnd() - start; got < 0.9 || got > 1.1 {
		t.Fatalf("CA growth per RTT = %v, want ~1", got)
	}
}

func TestFastRetransmitOnThirdDupack(t *testing.T) {
	h := newHarness(Config{Flow: 1})
	h.snd.ssthresh = 1
	h.snd.cwnd = 10
	h.snd.trySend()
	h.ack(1, 0) // progress to cum=1
	sentBefore := len(h.sent)
	// Packet 1 lost: dupacks carrying later AckSeqs.
	h.ack(1, 2)
	h.ack(1, 3)
	if h.snd.Stats().Rtx != 0 {
		t.Fatal("retransmitted before the third dupack")
	}
	h.ack(1, 4)
	if h.snd.Stats().Rtx != 1 {
		t.Fatalf("Rtx = %d after third dupack, want 1", h.snd.Stats().Rtx)
	}
	rtx := h.sent[sentBefore]
	if rtx.Seq != 1 {
		t.Fatalf("retransmitted seq %d, want the hole at 1", rtx.Seq)
	}
	if !h.snd.inRecovery {
		t.Fatal("not in recovery after fast retransmit")
	}
}

func TestRecoveryExitDeflatesToSsthresh(t *testing.T) {
	h := newHarness(Config{Flow: 1})
	h.snd.ssthresh = 1
	h.snd.cwnd = 16
	h.snd.trySend() // seqs 0..15 outstanding (plus IW 2 from start)
	h.ack(1, 0)
	for _, s := range []int64{2, 3, 4, 5, 6} {
		h.ack(1, s) // five dupacks: recovery + inflation
	}
	want := h.snd.ssthresh
	// Full ACK beyond recover point.
	h.ack(h.snd.recover+1, h.snd.recover)
	if h.snd.inRecovery {
		t.Fatal("still in recovery after full ACK")
	}
	if math.Abs(h.snd.Cwnd()-want) > 1e-9 {
		t.Fatalf("cwnd = %v after recovery, want deflated to ssthresh %v", h.snd.Cwnd(), want)
	}
}

func TestPartialAckRetransmitsNextHole(t *testing.T) {
	h := newHarness(Config{Flow: 1})
	h.snd.ssthresh = 1
	h.snd.cwnd = 16
	h.snd.trySend()
	h.ack(1, 0)
	for _, s := range []int64{2, 3, 4} {
		h.ack(1, s)
	}
	if !h.snd.inRecovery {
		t.Fatal("not in recovery")
	}
	rtxBefore := h.snd.Stats().Rtx
	// Partial ACK: advances cum but below recover -> retransmit cum.
	h.ack(5, 4)
	if h.snd.Stats().Rtx != rtxBefore+1 {
		t.Fatalf("partial ACK produced %d retransmissions, want 1 more", h.snd.Stats().Rtx-rtxBefore)
	}
	last := h.sent[len(h.sent)-1]
	if last.Seq != 5 {
		t.Fatalf("partial-ack retransmission was seq %d, want the new hole 5", last.Seq)
	}
	if !h.snd.inRecovery {
		t.Fatal("partial ACK must not exit recovery")
	}
}

func TestBackoffResetsOnNewAck(t *testing.T) {
	h := newHarness(Config{Flow: 1})
	h.snd.backoff = 8
	h.ack(1, 0)
	if h.snd.backoff != 1 {
		t.Fatalf("backoff = %v after a new ACK, want 1", h.snd.backoff)
	}
}

func TestRTOBoundsRespected(t *testing.T) {
	h := newHarness(Config{Flow: 1})
	h.snd.hasRTT = true
	h.snd.srtt, h.snd.rttvar = 0.001, 0.0001 // tiny: clamps to minRTO
	if got := h.snd.rto(); got != 0.2 {
		t.Fatalf("rto = %v, want minRTO 0.2", got)
	}
	h.snd.srtt = 100 // enormous: clamps to maxRTO
	if got := h.snd.rto(); got != 64 {
		t.Fatalf("rto = %v, want maxRTO 64", got)
	}
	h.snd.srtt, h.snd.rttvar = 0.1, 0.01
	h.snd.backoff = 1024 // backoff also clamps at maxRTO
	if got := h.snd.rto(); got != 64 {
		t.Fatalf("rto = %v with huge backoff, want maxRTO", got)
	}
}

func TestTimeoutRewindsAndCollapses(t *testing.T) {
	h := newHarness(Config{Flow: 1})
	h.snd.ssthresh = 1
	h.snd.cwnd = 16
	h.snd.trySend()
	h.ack(4, 3)
	nextBefore := h.snd.nextNew
	h.snd.onTimeout()
	if h.snd.Cwnd() != 1 {
		t.Fatalf("cwnd = %v after timeout, want 1", h.snd.Cwnd())
	}
	// Go-back-N: one packet retransmitted from cum.
	last := h.sent[len(h.sent)-1]
	if last.Seq != 4 {
		t.Fatalf("post-timeout transmission seq %d, want cum 4", last.Seq)
	}
	if h.snd.nextNew >= nextBefore {
		t.Fatal("nextNew did not rewind on timeout")
	}
	if h.snd.backoff != 2 {
		t.Fatalf("backoff = %v after first timeout, want 2", h.snd.backoff)
	}
}

func TestAckBeyondNextNewAfterRewind(t *testing.T) {
	// After go-back-N, ACKs for data still in flight can exceed nextNew;
	// the sender must absorb them without going backwards.
	h := newHarness(Config{Flow: 1})
	h.snd.ssthresh = 1
	h.snd.cwnd = 16
	h.snd.trySend()
	h.snd.onTimeout() // rewind to cum=0
	h.ack(10, 9)      // old in-flight data arrives anyway
	if h.snd.cum != 10 {
		t.Fatalf("cum = %d, want 10", h.snd.cum)
	}
	if h.snd.nextNew < 10 {
		t.Fatalf("nextNew = %d < cum; inflight accounting corrupt", h.snd.nextNew)
	}
	if h.snd.inflight() < 0 {
		t.Fatal("negative inflight")
	}
}

func TestSenderIgnoresWrongKind(t *testing.T) {
	h := newHarness(Config{Flow: 1})
	cwnd := h.snd.Cwnd()
	h.snd.Handle(&netem.Packet{Kind: netem.Data, Seq: 5})
	h.snd.Handle(&netem.Packet{Kind: netem.Feedback})
	if h.snd.Cwnd() != cwnd {
		t.Fatal("sender state changed on non-ACK input")
	}
}

func TestMaxPktsStopsExactly(t *testing.T) {
	done := false
	h := newHarness(Config{Flow: 1, MaxPkts: 5, InitialCwnd: 10, OnDone: func() { done = true }})
	if len(h.sent) != 5 {
		t.Fatalf("short transfer sent %d packets initially, want capped at 5", len(h.sent))
	}
	for i := int64(1); i <= 5; i++ {
		h.ack(i, i-1)
	}
	if !done || !h.snd.Done() {
		t.Fatal("transfer not marked done after final ACK")
	}
	if len(h.sent) != 5 {
		t.Fatalf("sent %d packets total, want exactly 5", len(h.sent))
	}
	// Further ACKs are ignored.
	h.ack(5, 4)
	if len(h.sent) != 5 {
		t.Fatal("sender transmitted after completion")
	}
}

func TestRTTEstimatorConverges(t *testing.T) {
	h := newHarness(Config{Flow: 1})
	for i := 0; i < 100; i++ {
		h.snd.sampleRTT(0.08)
	}
	if math.Abs(float64(h.snd.SRTT()-0.08)) > 0.001 {
		t.Fatalf("SRTT = %v after constant samples, want 0.08", h.snd.SRTT())
	}
	// Variance shrinks toward zero on constant samples.
	if h.snd.rttvar > 0.01 {
		t.Fatalf("rttvar = %v on constant samples", h.snd.rttvar)
	}
}

func TestRTTSamplerRejectsNonPositive(t *testing.T) {
	h := newHarness(Config{Flow: 1})
	h.snd.sampleRTT(-1)
	h.snd.sampleRTT(0)
	if h.snd.hasRTT {
		t.Fatal("non-positive RTT samples accepted")
	}
}

func TestDupAcksWithNothingOutstandingIgnored(t *testing.T) {
	h := newHarness(Config{Flow: 1, MaxPkts: 2})
	h.ack(2, 1) // completes the transfer... but MaxPkts done path
	h2 := newHarness(Config{Flow: 1})
	// Drain: ack everything outstanding.
	h2.ack(2, 1)
	dupBefore := h2.snd.dupAcks
	// Now inflight is >0 again after trySend; force inflight==0 state:
	h2.snd.nextNew = h2.snd.cum
	h2.ack(h2.snd.cum, h2.snd.cum-1)
	if h2.snd.dupAcks != dupBefore {
		t.Fatal("counted dupack with nothing outstanding")
	}
}
