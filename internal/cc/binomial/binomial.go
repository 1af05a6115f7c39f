// Package binomial provides the binomial congestion control window
// policies of Bansal & Balakrishnan (INFOCOM 2001): a nonlinear
// generalization of AIMD where the window grows by A/W^K per RTT and
// shrinks by B*W^L per loss event. SQRT (K=L=0.5) and IIAD (K=1, L=0)
// are the two instances the paper studies. The policies plug into the
// tcp package's transport, which supplies self-clocking, slow-start, and
// timeouts.
package binomial

import (
	"math"

	"slowcc/internal/tcpmodel"
)

// Policy is a binomial window policy with parameters (K, L, A, B).
type Policy struct {
	// K is the increase exponent: the window grows by A/W^K per RTT.
	K float64
	// L is the decrease exponent: the window shrinks by B*W^L per loss
	// event.
	L float64
	// A is the increase scale.
	A float64
	// B is the decrease scale.
	B float64
}

// New returns a TCP-compatible binomial policy for exponents k, l
// (which must satisfy k+l=1, l<=1) and decrease scale b; the increase
// scale is derived from the TCP-compatibility relation. New panics on
// parameters outside the TCP-compatible region, because the paper's
// entire analysis assumes compatibility.
func New(k, l, b float64) Policy {
	if !tcpmodel.TCPCompatibleBinomial(k, l) {
		panic("binomial: parameters violate k+l=1, l<=1")
	}
	return Policy{K: k, L: l, A: tcpmodel.BinomialIncrease(k, l, b), B: b}
}

// SQRT returns the SQRT binomial algorithm (K=L=0.5) with decrease
// scale b. The paper's SQRT(1/gamma) is SQRT(1/gamma).
func SQRT(b float64) Policy { return New(0.5, 0.5, b) }

// IIAD returns the inverse-increase/additive-decrease binomial algorithm
// (K=1, L=0) with decrease scale b.
func IIAD(b float64) Policy { return New(1, 0, b) }

// Increase implements cc.WindowPolicy. The per-RTT increment A/W^K is
// spread over the window's worth of ACKs, giving A/W^(K+1) per ACK.
func (p Policy) Increase(cwnd float64) float64 {
	w := math.Max(cwnd, 1)
	return p.A / math.Pow(w, p.K+1)
}

// Decrease implements cc.WindowPolicy: W -> max(1, W - B*W^L).
func (p Policy) Decrease(cwnd float64) float64 {
	w := math.Max(cwnd, 1)
	return math.Max(1, w-float64(p.B*math.Pow(w, p.L)))
}
