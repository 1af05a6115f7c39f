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
		Backgrounds:   []AlgoSpec{TCPAlgo(0.5), TFRCAlgo(TFRCOpts{K: 64})},
		Flows:         4,
		Rate:          4e6,
		OutageAt:      10,
		OutageDur:     2,
		CrowdStart:    12,
		CrowdDuration: 2,
		CrowdRate:     50,
		End:           40,
		Seed:          1,
	}
	res := sw.Outage(cfg)
	if len(res) != 2 {
		t.Fatalf("%d results, want 2", len(res))
	}
	for _, r := range res {
		if r.Transitions != 2 {
			t.Fatalf("%s: %d link transitions, want exactly 2 (one outage)", r.Background, r.Transitions)
		}
		// Delivery must stall during the blackout. The bin covering
		// (OutageAt+BinWidth, OutageAt+2*BinWidth] is fully inside the
		// dark window; at most one in-flight packet can land in it.
		for _, tp := range r.BackgroundRate {
			if tp.T > 10.5 && tp.T <= 12 && tp.V > 8*1500/0.5 {
				t.Fatalf("%s: %.0f bps delivered at t=%.1f during the outage", r.Background, tp.V, tp.T)
			}
		}
		// And resume after it: some bin after the link returns carries
		// at least a quarter of the bottleneck.
		var peak float64
		for _, tp := range r.BackgroundRate {
			if tp.T > 12 && tp.V > peak {
				peak = tp.V
			}
		}
		if peak < cfg.Rate/4 {
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
		Backgrounds: []AlgoSpec{TFRCAlgo(TFRCOpts{K: 16})},
		Flows:       2,
		Rate:        2e6,
		OutageAt:    8,
		OutageDur:   1,
		CrowdStart:  9,
		CrowdRate:   20,
		End:         20,
		Seed:        7,
	}
	a, b := sw.Outage(cfg), sw.Outage(cfg)
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
