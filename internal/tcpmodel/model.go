// Package tcpmodel collects the analytic formulas the paper builds on:
// the TCP-compatible parameter relations for AIMD and binomial
// algorithms, the Padhye et al. TCP response function, the pure-AIMD
// square-root law, the AIMD-with-timeouts model from the paper's
// Appendix A, and the expected-ACK convergence model behind Figure 11.
package tcpmodel

import "math"

// AIMDIncrease returns the TCP-compatible additive-increase parameter a
// for an AIMD algorithm with multiplicative-decrease parameter b, using
// the relation the paper adopts from Yang & Lam: a = 4(2b - b^2)/3.
// AIMDIncrease(0.5) = 1, recovering standard TCP.
func AIMDIncrease(b float64) float64 {
	return 4 * (2*b - float64(b*b)) / 3
}

// BinomialIncrease returns a TCP-compatible additive-increase scale a for
// a binomial algorithm with parameters k, l (k+l must be 1 for
// TCP-compatibility) and decrease scale b.
//
// Derivation (deterministic steady state, small b): the window climbs at
// a/W^k per RTT and sheds b*W^l per loss event, so a cycle lasts
// T = b*W^(k+l)/a RTTs and carries N = W*T = b*W^(k+l+1)/a packets. With
// one loss event per 1/p packets and k+l = 1, W = sqrt(a/(b*p)); matching
// TCP's sqrt(1.5/p) packets per RTT gives a = 1.5*b.
func BinomialIncrease(k, l, b float64) float64 {
	_ = k
	_ = l
	return 1.5 * b
}

// TCPCompatibleBinomial reports whether binomial parameters k, l satisfy
// the TCP-compatibility condition k + l = 1, l <= 1 from Bansal &
// Balakrishnan.
func TCPCompatibleBinomial(k, l float64) bool {
	return math.Abs(k+l-1) < 1e-9 && l <= 1
}

// PadhyeRate returns the full TCP response function of Padhye et al.
// (SIGCOMM 1998) as used by TFRC:
//
//	X = s / (R*sqrt(2bp/3) + t_RTO * (3*sqrt(3bp/8)) * p * (1+32p^2))
//
// in bytes per second, where s is the packet size in bytes, R the RTT in
// seconds, p the loss event rate, t_RTO the retransmit timeout (TFRC uses
// 4R), and b the number of packets acknowledged per ACK (1 here: the
// paper's TCPs do not delay ACKs). The min(1, .) clamp on the timeout
// coefficient follows the TFRC specification.
func PadhyeRate(p, rtt, rto float64, pktSize int) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	if p > 1 {
		p = 1
	}
	const b = 1.0
	f := float64(rtt*math.Sqrt(2*b*p/3)) + float64(rto*math.Min(1, 3*math.Sqrt(3*b*p/8))*p*(1+float64(32*p*p)))
	return float64(pktSize) / f
}

// PadhyeInverse returns the loss event rate p at which PadhyeRate equals
// the given rate (bytes/s), found by bisection. TFRC uses it to
// initialize the loss history after the first loss event. It returns 1
// for rates at or below the p=1 floor and a tiny p for enormous rates.
func PadhyeInverse(rate, rtt, rto float64, pktSize int) float64 {
	if rate <= 0 {
		return 1
	}
	lo, hi := 1e-9, 1.0
	if PadhyeRate(hi, rtt, rto, pktSize) >= rate {
		return 1
	}
	if PadhyeRate(lo, rtt, rto, pktSize) <= rate {
		return lo
	}
	for i := 0; i < 80; i++ {
		mid := math.Sqrt(lo * hi) // geometric bisection: p spans decades
		if PadhyeRate(mid, rtt, rto, pktSize) > rate {
			lo = mid // rate too high -> need more loss
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi)
}

// SimpleRate returns the first-order TCP-friendly rate sqrt(3/2)/
// (R*sqrt(p)) packets per second times the packet size: the "1.22/
// (R sqrt(p))" law, in bytes per second.
func SimpleRate(p, rtt float64, pktSize int) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	return float64(pktSize) * math.Sqrt(1.5/p) / rtt
}

// PureAIMDPktsPerRTT returns the sending rate of the pure AIMD model
// without timeouts, in packets per RTT: sqrt(1.5/p). (Appendix A's solid
// line.) The model is meaningful for p up to about 1/3.
func PureAIMDPktsPerRTT(p float64) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt(1.5 / p)
}

// AIMDWithTimeoutsPktsPerRTT returns the sending rate, in packets per
// RTT, of the paper's Appendix A deterministic AIMD model extended with
// exponential timer backoff for sending rates below one packet per RTT:
//
//	rate = (1/(1-p)) / (2^(1/(1-p)) - 1)
//
// The analysis is valid for p >= 0.5.
func AIMDWithTimeoutsPktsPerRTT(p float64) float64 {
	if p >= 1 {
		return 0
	}
	n := 1 / (1 - p)
	return n / (math.Pow(2, n) - 1)
}

// RenoPktsPerRTT returns the Padhye formula expressed in packets per RTT
// (the "Reno TCP" dashed line of Appendix A's Figure 20), with
// t_RTO = 4*RTT.
func RenoPktsPerRTT(p float64) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	const rtt = 1.0
	x := PadhyeRate(p, rtt, 4*rtt, 1) // pktSize 1 => packets/sec with RTT 1 => pkts/RTT
	return x
}

// ConvergenceACKs returns the expected number of ACK arrivals for two
// AIMD(a,b) flows sharing a link with mark probability p to move from a
// fully skewed allocation to a delta-fair one (paper Section 4.2.2):
// the window difference shrinks by (1-bp) per ACK, so the answer is
// log(delta) / log(1-b*p).
func ConvergenceACKs(b, p, delta float64) float64 {
	if b <= 0 || p <= 0 || b*p >= 1 || delta <= 0 || delta >= 1 {
		return math.Inf(1)
	}
	return math.Log(delta) / math.Log(1-float64(b*p))
}

// AggressivenessTCP returns the aggressiveness of TCP(a,b) — the maximum
// rate increase in one RTT given no congestion — which is simply a
// packets per RTT, expressed here in packets per second for round-trip
// time rtt.
func AggressivenessTCP(a, rtt float64) float64 { return a / rtt }

// FkTCP approximates f(k) — the average link utilization over the first
// k RTTs after the available bandwidth doubles from lambda to 2*lambda
// packets/s — for TCP(a,b): f(k) = 1/2 + k*a/(4*R*lambda), capped at 1.
// (Paper Section 4.2.3.)
func FkTCP(a float64, k int, rtt, lambda float64) float64 {
	f := 0.5 + float64(k)*a/(4*rtt*lambda)
	return math.Min(1, f)
}
