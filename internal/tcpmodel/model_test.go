package tcpmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func close(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAIMDIncreaseStandardTCP(t *testing.T) {
	if got := AIMDIncrease(0.5); !close(got, 1, 1e-12) {
		t.Fatalf("AIMDIncrease(0.5) = %v, want 1", got)
	}
}

func TestAIMDIncreaseMonotoneOnPaperRange(t *testing.T) {
	// On b in (0,1], smaller b (slower response) must mean smaller a.
	prev := 0.0
	for _, b := range []float64{1.0 / 256, 1.0 / 64, 1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2} {
		a := AIMDIncrease(b)
		if a <= prev {
			t.Fatalf("AIMDIncrease not increasing at b=%v: %v <= %v", b, a, prev)
		}
		prev = a
	}
}

func TestPadhyeRateMatchesSimpleAtLowLoss(t *testing.T) {
	// For small p the timeout term vanishes and Padhye approaches the
	// square-root law.
	p, rtt := 1e-4, 0.05
	full := PadhyeRate(p, rtt, 4*rtt, 1000)
	simple := SimpleRate(p, rtt, 1000)
	if ratio := full / simple; ratio < 0.9 || ratio > 1.01 {
		t.Fatalf("Padhye/simple ratio = %v at p=1e-4, want ~1", ratio)
	}
}

func TestPadhyeRateDecreasingInP(t *testing.T) {
	rtt := 0.05
	prev := math.Inf(1)
	for p := 0.001; p < 0.9; p *= 1.5 {
		x := PadhyeRate(p, rtt, 4*rtt, 1000)
		if x >= prev {
			t.Fatalf("PadhyeRate not decreasing at p=%v", p)
		}
		prev = x
	}
}

func TestPadhyeRateEdgeCases(t *testing.T) {
	if !math.IsInf(PadhyeRate(0, 0.05, 0.2, 1000), 1) {
		t.Fatal("PadhyeRate(0) must be +Inf")
	}
	if x := PadhyeRate(2, 0.05, 0.2, 1000); x <= 0 || math.IsInf(x, 0) {
		t.Fatalf("PadhyeRate clamps p>1; got %v", x)
	}
}

func TestPadhyeInverseRoundTrip(t *testing.T) {
	rtt := 0.05
	for _, p := range []float64{1e-5, 1e-3, 0.01, 0.1, 0.3} {
		rate := PadhyeRate(p, rtt, 4*rtt, 1000)
		got := PadhyeInverse(rate, rtt, 4*rtt, 1000)
		if math.Abs(math.Log(got/p)) > 0.01 {
			t.Fatalf("inverse(rate(p=%v)) = %v", p, got)
		}
	}
}

func TestPadhyeInverseExtremes(t *testing.T) {
	rtt := 0.05
	if got := PadhyeInverse(0, rtt, 4*rtt, 1000); got != 1 {
		t.Fatalf("inverse(0) = %v, want 1", got)
	}
	if got := PadhyeInverse(1e12, rtt, 4*rtt, 1000); got > 1e-8 {
		t.Fatalf("inverse(huge) = %v, want ~0", got)
	}
	if got := PadhyeInverse(1, rtt, 4*rtt, 1000); got != 1 {
		t.Fatalf("inverse(tiny rate) = %v, want 1 (below the p=1 floor)", got)
	}
}

// Property: PadhyeInverse is the right inverse of PadhyeRate across the
// whole meaningful range.
func TestPropertyPadhyeInverse(t *testing.T) {
	f := func(raw uint16) bool {
		p := 1e-6 + float64(raw)/65536.0*0.5 // p in [1e-6, 0.5)
		rtt := 0.05
		rate := PadhyeRate(p, rtt, 4*rtt, 1000)
		back := PadhyeInverse(rate, rtt, 4*rtt, 1000)
		return math.Abs(math.Log(back/p)) < 0.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPureAIMD(t *testing.T) {
	if got := PureAIMDPktsPerRTT(1.5); !close(got, 1, 1e-12) {
		t.Fatalf("PureAIMD(1.5) = %v, want 1", got)
	}
	if got := PureAIMDPktsPerRTT(0.015); !close(got, 10, 1e-9) {
		t.Fatalf("PureAIMD(0.015) = %v, want 10", got)
	}
}

func TestAIMDWithTimeoutsPaperExample(t *testing.T) {
	// Paper: at p = 1/2, the sender sends two packets every three RTTs.
	if got := AIMDWithTimeoutsPktsPerRTT(0.5); !close(got, 2.0/3, 1e-9) {
		t.Fatalf("AIMDWithTimeouts(0.5) = %v, want 2/3", got)
	}
	// p = 2/3 => n=3: sends 3 packets over 2^3-1 = 7 RTTs.
	if got := AIMDWithTimeoutsPktsPerRTT(2.0 / 3); !close(got, 3.0/7, 1e-9) {
		t.Fatalf("AIMDWithTimeouts(2/3) = %v, want 3/7", got)
	}
	if got := AIMDWithTimeoutsPktsPerRTT(1); got != 0 {
		t.Fatalf("AIMDWithTimeouts(1) = %v, want 0", got)
	}
}

func TestTimeoutModelBracketsReno(t *testing.T) {
	// Appendix A: "AIMD with timeouts" upper-bounds and "Reno TCP"
	// lower-bounds TCP behavior for p >= 0.5.
	for _, p := range []float64{0.5, 0.6, 0.7, 0.8} {
		upper := AIMDWithTimeoutsPktsPerRTT(p)
		lower := RenoPktsPerRTT(p)
		if lower >= upper {
			t.Fatalf("at p=%v Reno (%v) >= AIMD-with-timeouts (%v); bound inverted", p, lower, upper)
		}
	}
}

func TestConvergenceACKs(t *testing.T) {
	// b=0.5, p=0.1: (1-bp) = 0.95; need log(0.1)/log(0.95) ~ 44.9 ACKs.
	got := ConvergenceACKs(0.5, 0.1, 0.1)
	if !close(got, math.Log(0.1)/math.Log(0.95), 1e-9) {
		t.Fatalf("ConvergenceACKs = %v", got)
	}
	// Slower algorithms need exponentially more ACKs.
	if ConvergenceACKs(1.0/64, 0.1, 0.1) <= ConvergenceACKs(0.5, 0.1, 0.1) {
		t.Fatal("convergence must take longer for smaller b")
	}
	if !math.IsInf(ConvergenceACKs(0, 0.1, 0.1), 1) {
		t.Fatal("b=0 must never converge")
	}
}

func TestFkTCP(t *testing.T) {
	// Immediately after doubling, utilization starts at 1/2.
	if got := FkTCP(1, 0, 0.05, 1250); got != 0.5 {
		t.Fatalf("f(0) = %v, want 0.5", got)
	}
	if got := FkTCP(1, 1000000, 0.05, 1250); got != 1 {
		t.Fatalf("f(inf) = %v, want capped at 1", got)
	}
	// Larger a fills faster.
	if FkTCP(1, 20, 0.05, 1250) <= FkTCP(0.1, 20, 0.05, 1250) {
		t.Fatal("f(k) must increase with aggressiveness")
	}
}

func TestAggressiveness(t *testing.T) {
	if got := AggressivenessTCP(1, 0.05); !close(got, 20, 1e-12) {
		t.Fatalf("aggressiveness = %v, want 20 pkts/s", got)
	}
}
