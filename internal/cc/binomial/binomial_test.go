package binomial

import (
	"math"
	"testing"
	"testing/quick"

	"slowcc/internal/cc"
	"slowcc/internal/cc/tcp"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

func TestSQRTRules(t *testing.T) {
	p := SQRT(0.5)
	// Decrease: W - 0.5*sqrt(W); at W=16: 16-2 = 14.
	if got := p.Decrease(16); math.Abs(got-14) > 1e-12 {
		t.Fatalf("SQRT Decrease(16) = %v, want 14", got)
	}
	// Increase per ACK: a/W^1.5 with a=0.75; at W=16: 0.75/64.
	if got := p.Increase(16); math.Abs(got-0.75/64) > 1e-12 {
		t.Fatalf("SQRT Increase(16) = %v, want %v", got, 0.75/64)
	}
}

func TestIIADRules(t *testing.T) {
	p := IIAD(0.5)
	// Additive decrease: W - 0.5 regardless of W.
	if got := p.Decrease(16); math.Abs(got-15.5) > 1e-12 {
		t.Fatalf("IIAD Decrease(16) = %v, want 15.5", got)
	}
	// Inverse increase per ACK: a/W^2.
	if got := p.Increase(16); math.Abs(got-0.75/256) > 1e-12 {
		t.Fatalf("IIAD Increase(16) = %v, want %v", got, 0.75/256)
	}
}

func TestDecreaseFloorsAtOne(t *testing.T) {
	if got := SQRT(1).Decrease(1); got < 1 {
		t.Fatalf("Decrease(1) = %v, want >= 1", got)
	}
	if got := IIAD(1).Decrease(1.2); got < 1 {
		t.Fatalf("Decrease(1.2) = %v, want >= 1", got)
	}
}

// Property: for all valid windows, Decrease is gentler (removes less)
// for smaller b, and Increase is monotone in b.
func TestPropertySlownessOrdering(t *testing.T) {
	f := func(raw uint16) bool {
		w := 1 + float64(raw)/65535*1000 // W in [1, 1001]
		fast, slow := SQRT(0.5), SQRT(1.0/16)
		if fast.Decrease(w) > slow.Decrease(w) {
			return false // slower variant must keep a larger window
		}
		return fast.Increase(w) >= slow.Increase(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Decrease never increases the window and never goes below 1.
func TestPropertyDecreaseBounds(t *testing.T) {
	f := func(rawW, rawB uint16) bool {
		w := 1 + float64(rawW)/65535*10000
		b := 1.0/256 + float64(rawB)/65535*(1-1.0/256)
		for _, p := range []Policy{SQRT(b), IIAD(b)} {
			d := p.Decrease(w)
			if d > w || d < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// steadyUtil runs a single flow with the given policy and returns the
// bottleneck utilization measured after a warm-up. Binomial algorithms
// probe slowly (IIAD's increase is inverse in the window), so the
// warm-up must outlast the recovery from the initial slow-start
// overshoot — authentic behavior, noted in the binomial paper.
func steadyUtil(t *testing.T, pol Policy, seed int64, warm, measure float64) float64 {
	t.Helper()
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 10e6, Seed: seed})
	rcv := cc.NewAckReceiver(eng, 1, nil)
	snd := tcp.NewSender(eng, nil, tcp.Config{Flow: 1, Policy: pol})
	d.Connect(1, snd, rcv, topology.Span{})
	eng.At(0, snd.Start)
	eng.RunUntil(warm)
	base := rcv.Stats().BytesRecv
	eng.RunUntil(warm + measure)
	return float64(rcv.Stats().BytesRecv-base) * 8 / (10e6 * measure)
}

func TestSQRTFlowRunsOnDumbbell(t *testing.T) {
	if util := steadyUtil(t, SQRT(0.5), 11, 60, 60); util < 0.75 {
		t.Fatalf("SQRT steady utilization %.1f%%, want > 75%%", util*100)
	}
}

func TestIIADFlowRunsOnDumbbell(t *testing.T) {
	if util := steadyUtil(t, IIAD(0.5), 12, 150, 60); util < 0.6 {
		t.Fatalf("IIAD steady utilization %.1f%%, want > 60%%", util*100)
	}
}
