package exp

import (
	"strings"
	"testing"
)

// TestOutageBlackoutAndRecovery checks the core shape of the outage
// experiment at small scale: the bottleneck goes fully dark during the
// window, the outage is a clean single down/up pair, traffic recovers
// afterwards, and the renderer reports all of it.
func TestOutageBlackoutAndRecovery(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	cfg := OutageConfig{
		Flows:     4,
		OutageAt:  4,
		OutageDur: 2,
		End:       18,
		Seed:      1,
	}
	back := cfg.OutageAt + cfg.OutageDur
	res := sw.Outage(cfg)
	if len(res) != len(outageBackgrounds) {
		t.Fatalf("%d results, want %d", len(res), len(outageBackgrounds))
	}
	for _, r := range res {
		if r.Transitions != 2 {
			t.Fatalf("%s: %d link transitions, want exactly 2 (one outage)", r.Background, r.Transitions)
		}
		// Delivery must stall during the blackout. Every bin after the
		// first that ends inside the dark window lies wholly inside it;
		// at most one in-flight packet can land in each.
		for _, tp := range r.BackgroundRate {
			if tp.T > cfg.OutageAt+0.5 && tp.T <= back && tp.V > 8*1500/0.5 {
				t.Fatalf("%s: %.0f bps delivered at t=%.1f during the outage", r.Background, tp.V, tp.T)
			}
		}
		// And resume after it: some bin after the link returns carries
		// at least a quarter of the bottleneck.
		var peak float64
		for _, tp := range r.BackgroundRate {
			if tp.T > back && tp.V > peak {
				peak = tp.V
			}
		}
		if peak < outageRate/4 {
			t.Fatalf("%s: post-outage peak %.0f bps, link never recovered", r.Background, peak)
		}
		if r.RecoveryTime < 0 {
			t.Fatalf("%s: never reached %.0f%% utilization after the outage", r.Background, outageRecoverFrac*100)
		}
		if r.CrowdCompleted == 0 {
			t.Fatalf("%s: no crowd transfers completed", r.Background)
		}
	}
	out := RenderOutage(cfg, res)
	if !strings.Contains(out, "Outage recovery") || !strings.Contains(out, "recovered to") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}

// TestOutageDeterministic: same seed, same result — the injector's
// schedule and the engine share nothing but the configured times.
func TestOutageDeterministic(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	cfg := OutageConfig{
		Flows:     2,
		OutageAt:  3,
		OutageDur: 1,
		End:       8,
		Seed:      7,
	}
	cfg.fill()
	// A sweep of the one cell, a TFRC(16) background.
	run := func() []OutageResult {
		return supervisedMap(sw, 1, func(c *Cell) OutageResult { return runOutage(c, cfg, TFRCAlgo(TFRCOpts{K: 16})) })
	}
	a, b := run(), run()
	if len(a) != 1 || len(b) != 1 {
		t.Fatalf("result counts %d, %d", len(a), len(b))
	}
	if a[0].OutageDrops != b[0].OutageDrops || a[0].RecoveryTime != b[0].RecoveryTime ||
		a[0].CrowdCompleted != b[0].CrowdCompleted || a[0].CrowdBytes != b[0].CrowdBytes {
		t.Fatalf("outage runs diverged:\n%+v\n%+v", a[0], b[0])
	}
	for i := range a[0].BackgroundRate {
		if a[0].BackgroundRate[i] != b[0].BackgroundRate[i] {
			t.Fatalf("timeline diverged at bin %d", i)
		}
	}
}
