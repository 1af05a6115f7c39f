package journey_test

import (
	"bytes"
	"math"
	"testing"

	"slowcc/internal/cc"
	"slowcc/internal/cc/tcp"
	"slowcc/internal/obs"
	"slowcc/internal/obs/journey"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

// wireTCP puts one standard TCP flow onto any fabric, pool-aware.
func wireTCP(eng *sim.Engine, f topology.Fabric, flow int) *tcp.Sender {
	rcv := cc.NewAckReceiver(eng, flow, nil)
	snd := tcp.NewSender(eng, nil, tcp.Config{Flow: flow})
	f.Connect(flow, snd, rcv, topology.Span{})
	eng.At(0, snd.Start)
	return snd
}

func TestDumbbellAttributionTilesEndToEndDelay(t *testing.T) {
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 10e6, Seed: 71})
	rec := journey.New()
	d.ObserveJourneys(rec)
	wireTCP(eng, d, 1)
	eng.RunUntil(20)
	rec.Finalize()

	n, e2e, queue, tx, prop := rec.Attribution()
	if n == 0 {
		t.Fatal("no packets traversed the full path")
	}
	sum := queue + tx + prop
	if tol := 1e-9 * float64(n); math.Abs(sum-e2e) > tol {
		t.Fatalf("components %v (q=%v tx=%v prop=%v) vs e2e %v: off by %v (> %v)",
			sum, queue, tx, prop, e2e, sum-e2e, tol)
	}
	// A saturating TCP flow queues at the bottleneck: the lr hop must
	// own the bulk of the queueing delay, and the 1 Gbps access links
	// essentially none.
	hops := rec.Hops()
	byName := map[string]journey.HopSummary{}
	for _, h := range hops {
		byName[h.Name] = h
	}
	lr := byName["lr"]
	if lr.Delivered == 0 || lr.QueueSum <= 0 {
		t.Fatalf("lr hop %+v", lr)
	}
	if lr.QueueSum < 0.9*queue {
		t.Fatalf("lr queue sum %v is not the bulk of total queueing %v", lr.QueueSum, queue)
	}
	if lr.QueueDelay.Count != lr.Delivered {
		t.Fatalf("lr queue-delay histogram count %d != delivered %d", lr.QueueDelay.Count, lr.Delivered)
	}
	// Data packets dropped by RED at the bottleneck show up as lr drops
	// and drop bursts.
	if lr.Drops == 0 || lr.DropBurst.Count == 0 {
		t.Fatalf("saturating flow saw no lr drops (%+v)", lr)
	}

	// ACK RTT samples: at least the propagation RTT (50 ms), bounded by
	// propagation + full queue (2.5 BDP ≈ 3 extra RTTs).
	flows, sums := rec.FlowRTTs()
	if len(flows) != 1 || flows[0] != 1 {
		t.Fatalf("rtt flows %v", flows)
	}
	rtt := sums[0]
	if rtt.Count == 0 {
		t.Fatal("no RTT samples")
	}
	propRTT := float64(d.PropRTT())
	if rtt.P50 < propRTT || rtt.Max > 10*propRTT {
		t.Fatalf("rtt p50 %v max %v vs propagation %v", rtt.P50, rtt.Max, propRTT)
	}
}

func TestParkingLot3HopAttributionAndTimeline(t *testing.T) {
	eng := sim.New(1)
	n := topology.NewNet(eng, topology.NetConfig{
		Hops: []topology.Hop{{}, {}, {}},
		Seed: 5,
	})
	rec := journey.New()
	n.ObserveJourneys(rec)
	wireTCP(eng, n, 1)
	wireTCP(eng, n, 2)
	eng.RunUntil(15)
	rec.Finalize()

	pkts, e2e, queue, tx, prop := rec.Attribution()
	if pkts == 0 {
		t.Fatal("no packets traversed the chain")
	}
	sum := queue + tx + prop
	if tol := 1e-9 * float64(pkts); math.Abs(sum-e2e) > tol {
		t.Fatalf("3-hop components %v vs e2e %v: off by %v", sum, e2e, sum-e2e)
	}
	// Every chain hop must have seen traffic, and per-hop queue-delay
	// histogram sums must agree with the recorder's exact sums within
	// histogram resolution (12.5% per bucket).
	var histQueueSum float64
	hops := rec.Hops()
	if len(hops) < 6+8 { // 3 fwd + 3 rev + 2 flows × 4 access links
		t.Fatalf("hops attached: %d", len(hops))
	}
	for _, h := range hops {
		if h.Name == "fwd0" && h.Delivered == 0 {
			t.Fatalf("first chain hop idle: %+v", h)
		}
		histQueueSum += h.QueueDelay.Mean * float64(h.QueueDelay.Count)
	}
	if queue > 0 && math.Abs(histQueueSum-queue) > 0.001*queue {
		t.Fatalf("histogram queue mass %v vs exact %v", histQueueSum, queue)
	}

	// The timeline replay must be Perfetto-loadable JSON carrying the
	// same spans.
	tl := obs.NewTimeline()
	rec.WriteTimeline(tl)
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ValidateTimeline(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	spans, truncated := rec.Spans()
	if truncated != 0 {
		t.Fatalf("spans truncated: %d", truncated)
	}
	// Every span becomes one event, plus per-hop process and per-row
	// thread metadata.
	if events <= len(spans) {
		t.Fatalf("timeline has %d events for %d spans", events, len(spans))
	}
}

func TestSpanOrderingAndComponentIdentity(t *testing.T) {
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 10e6, Seed: 3})
	rec := journey.New()
	d.ObserveJourneys(rec)
	wireTCP(eng, d, 1)
	eng.RunUntil(5)
	rec.Finalize()

	spans, _ := rec.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans")
	}
	for i, s := range spans {
		if s.Dropped {
			if s.End != s.Enq {
				t.Fatalf("span %d: dropped span with duration: %+v", i, s)
			}
			continue
		}
		if !(s.Enq <= s.TxStart && s.TxStart <= s.TxEnd && s.TxEnd <= s.End) {
			t.Fatalf("span %d out of order: %+v", i, s)
		}
		if math.Abs(float64(s.Queue()+s.Tx()+s.Prop())-float64(s.End-s.Enq)) > 1e-12 {
			t.Fatalf("span %d components do not tile residency: %+v", i, s)
		}
	}
}

func TestHistogramsNames(t *testing.T) {
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 10e6, Seed: 3})
	rec := journey.New()
	d.ObserveJourneys(rec)
	wireTCP(eng, d, 1)
	eng.RunUntil(5)
	rec.Finalize()

	sums := rec.Histograms()
	for _, want := range []string{
		"journey.lr.queue_delay",
		"journey.lr.drop_burst",
		"journey.rl.queue_delay",
		"journey.access-1-lr-in.queue_delay",
		"journey.access-1-lr-out.queue_delay",
		"journey.access-1-rl-in.queue_delay",
		"journey.access-1-rl-out.queue_delay",
		"journey.flow1.rtt",
	} {
		if _, ok := sums[want]; !ok {
			t.Fatalf("missing histogram %q (have %d)", want, len(sums))
		}
	}
	if sums["journey.flow1.rtt"].Count == 0 {
		t.Fatal("flow RTT histogram empty")
	}
}

func TestMaxSpansTruncates(t *testing.T) {
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 10e6, Seed: 3})
	rec := journey.New()
	rec.MaxSpans = 100
	d.ObserveJourneys(rec)
	wireTCP(eng, d, 1)
	eng.RunUntil(5)
	rec.Finalize()

	spans, truncated := rec.Spans()
	if len(spans) != 100 {
		t.Fatalf("retained %d spans, want 100", len(spans))
	}
	if truncated == 0 {
		t.Fatal("expected truncation")
	}
	// Histograms and attribution keep counting past the cap.
	n, _, _, _, _ := rec.Attribution()
	if n <= 25 {
		t.Fatalf("attribution stopped with spans: %d packets", n)
	}
}
