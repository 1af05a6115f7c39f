package tfrc

import (
	"math"
	"testing"

	"slowcc/internal/netem"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

func TestWeightsMatchSpecForEight(t *testing.T) {
	want := []float64{1, 1, 1, 1, 0.8, 0.6, 0.4, 0.2}
	got := Weights(8)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("Weights(8) = %v, want %v", got, want)
		}
	}
}

func TestWeightsGeneralShape(t *testing.T) {
	for _, n := range []int{1, 2, 6, 16, 256} {
		w := Weights(n)
		if len(w) != n {
			t.Fatalf("Weights(%d) has %d entries", n, len(w))
		}
		for i := 1; i < n; i++ {
			if w[i] > w[i-1]+1e-12 {
				t.Fatalf("Weights(%d) not non-increasing at %d: %v", n, i, w)
			}
		}
		if w[0] != 1 {
			t.Fatalf("Weights(%d)[0] = %v, want 1", n, w[0])
		}
		if w[n-1] <= 0 {
			t.Fatalf("Weights(%d) last = %v, want > 0", n, w[n-1])
		}
	}
}

// wire connects a TFRC pair over a dumbbell.
func wire(eng *sim.Engine, d *topology.Net, flow, k int, conservative bool) (*Sender, *Receiver) {
	rcv := NewReceiver(eng, flow, nil, k)
	snd := NewSender(eng, nil, Config{Flow: flow, Conservative: conservative})
	d.Connect(flow, snd, rcv, topology.Span{})
	return snd, rcv
}

func TestTFRCFillsBottleneck(t *testing.T) {
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 10e6, Seed: 31})
	snd, rcv := wire(eng, d, 1, 8, false)
	eng.At(0, snd.Start)
	eng.RunUntil(60)
	util := float64(rcv.Stats().BytesRecv) * 8 / (10e6 * 60)
	if util < 0.70 {
		t.Fatalf("TFRC achieved %.1f%% utilization, want > 70%%", util*100)
	}
	if rcv.LossEventRate() == 0 {
		t.Fatal("saturating TFRC flow must observe losses")
	}
}

func TestTFRCSlowStartExitsOnLoss(t *testing.T) {
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 5e6, Seed: 32})
	snd, _ := wire(eng, d, 1, 8, false)
	eng.At(0, snd.Start)
	eng.RunUntil(30)
	if snd.inSS {
		t.Fatal("sender still in slow-start after 30s of saturation")
	}
}

func TestTFRCRateTracksEquation(t *testing.T) {
	// On a lossy link the long-run TFRC throughput must be within a
	// factor ~2 of the equation's prediction for the realized loss rate.
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 10e6, Seed: 33})
	snd, rcv := wire(eng, d, 1, 8, false)
	eng.At(0, snd.Start)
	eng.RunUntil(120)
	p := rcv.LossEventRate()
	if p <= 0 {
		t.Fatal("no loss measured")
	}
	rate := float64(rcv.Stats().BytesRecv) * 8 / 120
	// The p seen at the end is a steady-state sample; allow generous
	// tolerance since rate and p co-vary.
	pred := 8 * 1000 / (snd.SRTT() * math.Sqrt(2*p/3)) // first-order formula, bits/s
	if rate < pred/4 || rate > pred*4 {
		t.Fatalf("rate %v vs equation %v: off by more than 4x (p=%v)", rate, pred, p)
	}
}

func TestTFRCReceiverCoalescesLossesWithinRTT(t *testing.T) {
	eng := sim.New(1)
	sink := &fbSink{}
	r := NewReceiver(eng, 1, sink, 8)
	// Deliver packets with two holes 10ms apart (RTT = 50ms): one event.
	now := func(seq int64, at sim.Time) *netem.Packet {
		return &netem.Packet{Kind: netem.Data, Seq: seq, Size: 1000, SentAt: at, SenderRTT: 0.05}
	}
	eng.At(0.00, func() { r.Handle(now(0, 0)) })
	for i := int64(1); i <= 30; i++ {
		at := 0.001 * float64(i)
		seq := i
		eng.At(at, func() { r.Handle(now(seq, at)) })
	}
	// Hole at 31, arrival 32; hole at 33, arrival 34 — 2ms apart.
	eng.At(0.032, func() { r.Handle(now(32, 0.032)) })
	eng.At(0.034, func() { r.Handle(now(34, 0.034)) })
	eng.RunUntil(0.04)
	if got := len(r.intervals); got != 1 {
		t.Fatalf("two holes within an RTT produced %d loss intervals, want 1 (coalesced)", got)
	}
}

func TestTFRCReceiverSeparatesEventsAcrossRTTs(t *testing.T) {
	eng := sim.New(1)
	sink := &fbSink{}
	r := NewReceiver(eng, 1, sink, 8)
	pkt := func(seq int64, at sim.Time) {
		eng.At(at, func() {
			r.Handle(&netem.Packet{Kind: netem.Data, Seq: seq, Size: 1000, SentAt: at, SenderRTT: 0.05})
		})
	}
	seqAt := int64(0)
	tt := sim.Time(0)
	for i := 0; i < 50; i++ { // clean run
		pkt(seqAt, tt)
		seqAt++
		tt += 0.002
	}
	seqAt++ // hole -> event 1
	pkt(seqAt, tt)
	seqAt++
	tt += 0.2 // well past one RTT
	seqAt++   // hole -> event 2
	pkt(seqAt, tt)
	eng.RunUntil(1)
	if got := len(r.intervals); got != 2 {
		t.Fatalf("%d loss intervals recorded, want 2 (separate events)", got)
	}
}

type fbSink struct{ fbs []*netem.TFRCFeedback }

func (f *fbSink) Handle(p *netem.Packet) {
	if p.FB != nil {
		f.fbs = append(f.fbs, p.FB)
	}
}

func TestTFRCFeedbackCadenceAndContent(t *testing.T) {
	eng := sim.New(1)
	sink := &fbSink{}
	r := NewReceiver(eng, 1, sink, 8)
	// Feed a steady 100 pkts/s stream for 1s.
	for i := 0; i < 100; i++ {
		at := float64(i) * 0.01
		seq := int64(i)
		eng.At(at, func() {
			r.Handle(&netem.Packet{Kind: netem.Data, Seq: seq, Size: 1000, SentAt: at, SenderRTT: 0.05})
		})
	}
	eng.RunUntil(1)
	// One feedback per RTT (50ms) over ~1s: about 20.
	if n := len(sink.fbs); n < 10 || n > 30 {
		t.Fatalf("%d feedback packets in 1s at RTT 50ms, want ~20", n)
	}
	last := sink.fbs[len(sink.fbs)-1]
	if last.LossEventRate != 0 {
		t.Fatalf("loss rate %v on a clean stream, want 0", last.LossEventRate)
	}
	// 100 pkt/s * 1000B = 100 kB/s.
	if last.RecvRate < 50e3 || last.RecvRate > 200e3 {
		t.Fatalf("reported recv rate %v, want ~1e5 B/s", last.RecvRate)
	}
}

func TestTFRCLossSeenFlagClearsAfterFeedback(t *testing.T) {
	eng := sim.New(1)
	sink := &fbSink{}
	r := NewReceiver(eng, 1, sink, 8)
	at := func(seq int64, tt sim.Time) {
		eng.At(tt, func() {
			r.Handle(&netem.Packet{Kind: netem.Data, Seq: seq, Size: 1000, SentAt: tt, SenderRTT: 0.05})
		})
	}
	for i := int64(0); i < 20; i++ {
		at(i, 0.002*float64(i))
	}
	at(21, 0.06) // hole at 20 -> loss event + immediate feedback
	// Keep data flowing so later (clean) feedback windows are reported.
	for i := int64(22); i < 80; i++ {
		at(i, 0.06+0.002*float64(i-21))
	}
	eng.RunUntil(0.5)
	var sawLoss, sawClear bool
	for _, fb := range sink.fbs {
		if fb.LossSeen {
			sawLoss = true
		} else if sawLoss {
			sawClear = true
		}
	}
	if !sawLoss {
		t.Fatal("no feedback carried LossSeen after a hole")
	}
	if !sawClear {
		t.Fatal("LossSeen never cleared on subsequent feedback")
	}
}

func TestConservativeCapsAtReceiveRate(t *testing.T) {
	eng := sim.New(1)
	snd := NewSender(eng, netem.HandlerFunc(func(*netem.Packet) {}), Config{Flow: 1, Conservative: true})
	eng.At(0, snd.Start)
	eng.RunUntil(0.01)
	snd.srtt, snd.hasRTT = 0.05, true
	snd.inSS = false
	snd.x = 1e6
	// Loss reported, receiver says only 100 kB/s arrives: cap there even
	// though the equation would allow much more.
	snd.Handle(&netem.Packet{Kind: netem.Feedback, Echo: eng.Now() - 0.05,
		FB: &netem.TFRCFeedback{LossEventRate: 1e-6, RecvRate: 100e3, LossSeen: true}})
	if snd.Rate() > 100e3+1 {
		t.Fatalf("conservative sender at %v B/s after loss, want <= reported 1e5", snd.Rate())
	}
	// Next RTT, no loss: at most C (=1.1) times the receive rate.
	snd.Handle(&netem.Packet{Kind: netem.Feedback, Echo: eng.Now() - 0.05,
		FB: &netem.TFRCFeedback{LossEventRate: 1e-6, RecvRate: 100e3, LossSeen: false}})
	if snd.Rate() > 110e3+1 {
		t.Fatalf("conservative sender at %v B/s without loss, want <= 1.1x recv rate", snd.Rate())
	}
}

func TestStandardCapsAtTwiceReceiveRate(t *testing.T) {
	eng := sim.New(1)
	snd := NewSender(eng, netem.HandlerFunc(func(*netem.Packet) {}), Config{Flow: 1})
	eng.At(0, snd.Start)
	eng.RunUntil(0.01)
	snd.srtt, snd.hasRTT = 0.05, true
	snd.inSS = false
	snd.x = 1e6
	snd.Handle(&netem.Packet{Kind: netem.Feedback, Echo: eng.Now() - 0.05,
		FB: &netem.TFRCFeedback{LossEventRate: 1e-6, RecvRate: 100e3, LossSeen: true}})
	if snd.Rate() > 200e3+1 {
		t.Fatalf("standard sender at %v B/s, want <= 2x recv rate", snd.Rate())
	}
	if snd.Rate() < 150e3 {
		t.Fatalf("standard sender at %v B/s, want close to the 2x cap (equation allows more)", snd.Rate())
	}
}

func TestNoFeedbackTimerHalvesRate(t *testing.T) {
	eng := sim.New(1)
	snd := NewSender(eng, netem.HandlerFunc(func(*netem.Packet) {}), Config{Flow: 1})
	eng.At(0, snd.Start)
	eng.RunUntil(0.01)
	snd.srtt, snd.hasRTT = 0.05, true
	snd.x = 1e6
	before := snd.Rate()
	eng.RunUntil(3) // several no-feedback intervals pass with silence
	if snd.Rate() >= before/2 {
		t.Fatalf("rate %v after feedback blackout, want repeatedly halved from %v", snd.Rate(), before)
	}
	if snd.Stats().Timeouts == 0 {
		t.Fatal("no-feedback timer never fired")
	}
}

func TestHistoryDiscountingRaisesAverage(t *testing.T) {
	eng := sim.New(1)
	mk := func(hd bool) *Receiver {
		r := NewReceiver(eng, 1, &fbSink{}, 8)
		r.HistoryDiscounting = hd
		r.gotAny = true
		r.haveLoss = true
		r.intervals = []int64{50, 50, 50, 50}
		r.eventSeq = 0
		r.maxSeq = 1000 // long open interval: 20x the history mean
		return r
	}
	plain := mk(false).avgInterval()
	disc := mk(true).avgInterval()
	if disc <= plain {
		t.Fatalf("history discounting avg %v <= plain %v; discounting must raise the average", disc, plain)
	}
}

func TestTFRCSmootherThanTCPUnderSteadyLoss(t *testing.T) {
	// Sanity for "the good": per-0.5s rates of a steady TFRC flow vary
	// less than a factor 2 once converged.
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 10e6, Seed: 35})
	snd, rcv := wire(eng, d, 1, 8, false)
	eng.At(0, snd.Start)
	eng.RunUntil(60) // converge
	var rates []float64
	last := rcv.Stats().BytesRecv
	var sample func()
	sample = func() {
		cur := rcv.Stats().BytesRecv
		rates = append(rates, float64(cur-last))
		last = cur
		eng.After(0.5, sample)
	}
	eng.After(0.5, sample)
	eng.RunUntil(120)
	min, max := math.Inf(1), 0.0
	for _, r := range rates {
		min = math.Min(min, r)
		max = math.Max(max, r)
	}
	if min <= 0 || max/min > 3 {
		t.Fatalf("TFRC 0.5s-rate band [%v, %v] too wide for steady conditions", min, max)
	}
}
