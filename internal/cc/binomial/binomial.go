// Package binomial provides the two binomial window policies the paper
// studies (Bansal & Balakrishnan, INFOCOM 2001): the window grows by
// a/W^k per RTT and shrinks by b*W^l per loss event, with SQRT's
// k = l = 1/2 and IIAD's k = 1, l = 0. Both are TCP-compatible
// (k + l = 1) with a = 1.5*b: a cycle of T = b*W^(k+l)/a RTTs carries
// W*T = b*W^(k+l+1)/a packets, one loss event per 1/p packets gives
// W = sqrt(a/(b*p)), and TCP's sqrt(1.5/p) packets per RTT gives
// a = 1.5*b. The exponents are spelled out (w*sqrt(w), w*w), not
// math.Pow, so a window is the same on every CPU. The policies plug
// into the tcp package's transport, which supplies self-clocking,
// slow-start, and timeouts.
package binomial

import "math"

// Policy is SQRT or IIAD with its scales a = 1.5*b and b.
type Policy struct {
	sqrt bool // k = l = 1/2; otherwise IIAD's k = 1, l = 0
	a, b float64
}

// SQRT returns the SQRT binomial algorithm (k = l = 1/2) with decrease
// scale b. The paper's SQRT(1/gamma) is SQRT(1/gamma).
func SQRT(b float64) Policy { return Policy{sqrt: true, a: 1.5 * b, b: b} }

// IIAD returns the inverse-increase/additive-decrease binomial algorithm
// (k = 1, l = 0) with decrease scale b.
func IIAD(b float64) Policy { return Policy{a: 1.5 * b, b: b} }

// Increase implements cc.WindowPolicy. The per-RTT increment a/W^k is
// spread over the window's worth of ACKs, giving a/W^(k+1) per ACK.
func (p Policy) Increase(cwnd float64) float64 {
	w := math.Max(cwnd, 1)
	if p.sqrt {
		return p.a / float64(w*math.Sqrt(w))
	}
	return p.a / float64(w*w)
}

// Decrease implements cc.WindowPolicy: W -> max(1, W - b*W^l).
func (p Policy) Decrease(cwnd float64) float64 {
	w := math.Max(cwnd, 1)
	if p.sqrt {
		return math.Max(1, w-float64(p.b*math.Sqrt(w)))
	}
	return math.Max(1, w-p.b)
}
