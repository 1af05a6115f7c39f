package exp

import (
	"strings"
	"testing"
)

func TestStaticCompatAllWithinBand(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	// The paper's premise: TCP-compatible algorithms obtain roughly
	// TCP's throughput under a static loss process. Audit every family
	// at p = 1% and require the ratio to stay within a 2x band (the
	// literature's usual definition of "roughly the same"): the audit's
	// cells at that one loss rate, TCP(1/2)'s first.
	cfg := StaticCompatConfig{
		Warmup:  20,
		Measure: 60,
		Seed:    1,
	}
	algos := append([]AlgoSpec{TCPAlgo(0.5)}, staticCompatAlgos...)
	rates := supervisedMap(sw, len(algos), func(c *Cell) float64 { return staticRun(c, cfg, algos[c.Index()], 100) })
	if len(rates) != 7 {
		t.Fatalf("%d cells, want TCP(1/2) and 6 algorithms", len(rates))
	}
	for i, rate := range rates[1:] {
		if vs := rate / rates[0]; vs < 0.5 || vs > 2.0 {
			t.Errorf("%s at p=0.010: %.2fx TCP's throughput — outside the TCP-compatible band",
				staticCompatAlgos[i].Name, vs)
		}
		if rate <= 0 {
			t.Errorf("%s produced no throughput", staticCompatAlgos[i].Name)
		}
	}
}

func TestStaticCompatThroughputFallsWithLoss(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	cfg := StaticCompatConfig{Warmup: 20, Measure: 60, Seed: 1}
	tfrc, everyNth := TFRCAlgo(TFRCOpts{K: 8, HistoryDiscounting: true}), []int{400, 25}
	// The audit's TFRC(8) cells at p = 1/400 and p = 1/25, in bits/s.
	rates := supervisedMap(sw, len(everyNth), func(c *Cell) float64 { return staticRun(c, cfg, tfrc, everyNth[c.Index()]) })
	if len(rates) != 2 {
		t.Fatalf("%d points", len(rates))
	}
	lo, hi := rates[0], rates[1]
	if hi >= lo {
		t.Fatalf("throughput did not fall with loss: %.3f Mbps at p=1/400 vs %.3f at p=1/25", lo/1e6, hi/1e6)
	}
	// The response function scales as 1/sqrt(p): 4x the loss rate should
	// roughly halve throughput, certainly not leave it unchanged.
	if hi > lo*0.8 {
		t.Fatalf("throughput barely moved across a 16x loss-rate change")
	}
}

func TestRenderStaticCompat(t *testing.T) {
	t.Parallel()
	out := RenderStaticCompat([]StaticCompatPoint{
		{Algo: "TFRC(8)", P: 0.01, Mbps: 1.7, TCPMbps: 1.66, VsTCP: 1.02, VsModel: 0.87},
	})
	for _, want := range []string{"TFRC(8)", "vs TCP", "0.0100"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRTTFairnessShortFlowWins(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	cfg := RTTFairnessConfig{Warmup: 15, Measure: 60, Seed: 1}
	res := sw.RTTFairness(cfg)
	if len(res) != 2 {
		t.Fatalf("%d results", len(res))
	}
	for _, r := range res {
		if r.ShortMbps <= 0 || r.LongMbps <= 0 {
			t.Fatalf("%s produced a dead flow: %+v", r.Algo, r)
		}
		// The short-RTT flow must win for both (the known RTT bias the
		// paper's equitability claim is scoped around).
		if r.Advantage < 1 {
			t.Errorf("%s short-RTT flow lost (advantage %.2f)", r.Algo, r.Advantage)
		}
		if r.Advantage > 20 {
			t.Errorf("%s advantage %.2f implausibly large", r.Algo, r.Advantage)
		}
	}
	if !strings.Contains(RenderRTTFairness(cfg, res), "advantage") {
		t.Fatal("render incomplete")
	}
}

func TestQueueDynamicsComparison(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	cfg := QueueDynamicsConfig{Warmup: 15, Measure: 45, Seed: 1}
	res := sw.QueueDynamics(cfg)
	if len(res) != 3 {
		t.Fatalf("%d results", len(res))
	}
	for _, r := range res {
		if r.Queue.N == 0 {
			t.Fatalf("%s: no queue samples", r.Algo)
		}
		if r.Queue.Mean <= 0 || r.Queue.Max <= r.Queue.Mean {
			t.Fatalf("%s: implausible queue summary %+v", r.Algo, r.Queue)
		}
		if r.Utilization < 0.5 || r.Utilization > 1.01 {
			t.Fatalf("%s: utilization %v", r.Algo, r.Utilization)
		}
	}
	// TCP(1/8)'s smaller per-event reduction must yield a steadier queue
	// than TCP(1/2)'s halving.
	if res[1].CoV >= res[0].CoV {
		t.Errorf("TCP(1/8) queue CoV %v not below TCP(1/2)'s %v", res[1].CoV, res[0].CoV)
	}
	if !strings.Contains(RenderQueueDynamics(cfg, res), "queue CoV") {
		t.Fatal("render incomplete")
	}
}
