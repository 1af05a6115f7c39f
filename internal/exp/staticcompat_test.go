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
	// literature's usual definition of "roughly the same").
	cfg := StaticCompatConfig{
		DropEveryNth: []int{100},
		Warmup:       20,
		Measure:      60,
		Seed:         1,
	}
	pts := sw.StaticCompat(cfg)
	if len(pts) != 6 {
		t.Fatalf("%d points, want 6 algorithms", len(pts))
	}
	for _, p := range pts {
		if p.VsTCP < 0.5 || p.VsTCP > 2.0 {
			t.Errorf("%s at p=%.3f: %.2fx TCP's throughput — outside the TCP-compatible band",
				p.Algo, p.P, p.VsTCP)
		}
		if p.Mbps <= 0 {
			t.Errorf("%s produced no throughput", p.Algo)
		}
	}
}

func TestStaticCompatThroughputFallsWithLoss(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	cfg := StaticCompatConfig{
		Algos:        []AlgoSpec{TFRCAlgo(TFRCOpts{K: 8, HistoryDiscounting: true})},
		DropEveryNth: []int{400, 25},
		Warmup:       20,
		Measure:      60,
		Seed:         1,
	}
	pts := sw.StaticCompat(cfg)
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[1].Mbps >= pts[0].Mbps {
		t.Fatalf("throughput did not fall with loss: %.3f at p=%.4f vs %.3f at p=%.4f",
			pts[0].Mbps, pts[0].P, pts[1].Mbps, pts[1].P)
	}
	// The response function scales as 1/sqrt(p): 4x the loss rate should
	// roughly halve throughput, certainly not leave it unchanged.
	if pts[1].Mbps > pts[0].Mbps*0.8 {
		t.Fatalf("throughput barely moved across a 16x loss-rate change")
	}
}

func TestRenderStaticCompat(t *testing.T) {
	t.Parallel()
	cfg := StaticCompatConfig{}
	out := RenderStaticCompat(cfg, []StaticCompatPoint{
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
