package exp

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"slowcc/internal/tcpmodel"
)

// Fig20Point is one row of the Appendix A model comparison.
type Fig20Point struct {
	P float64
	// PureAIMD, Reno, and AIMDTimeouts are sending rates in packets per
	// RTT under the three models.
	PureAIMD, Reno, AIMDTimeouts float64
}

// Fig20 evaluates the three throughput models over a loss-rate sweep.
// The pure-AIMD model is meaningful up to p ~ 1/3 and the
// AIMD-with-timeouts model from p = 0.5 up; following the paper, all
// three are tabulated across the sweep so the crossover region is
// visible.
func Fig20(ps []float64) []Fig20Point {
	if ps == nil {
		ps = []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95}
	}
	var out []Fig20Point
	for _, p := range ps {
		pt := Fig20Point{
			P:            p,
			PureAIMD:     math.NaN(),
			Reno:         tcpmodel.RenoPktsPerRTT(p),
			AIMDTimeouts: math.NaN(),
		}
		// Validity ranges per Appendix A: the pure-AIMD analysis applies
		// up to p ~ 1/3, the timeout extension from p = 1/2 up.
		if p <= 1.0/3 {
			pt.PureAIMD = tcpmodel.PureAIMDPktsPerRTT(p)
		}
		if p >= 0.5 {
			pt.AIMDTimeouts = tcpmodel.AIMDWithTimeoutsPktsPerRTT(p)
		}
		out = append(out, pt)
	}
	return out
}

// RenderFig20 prints the model table.
func RenderFig20(pts []Fig20Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 20: sending rate (packets/RTT) vs packet drop rate\n")
	fmt.Fprintf(&b, "%8s %12s %12s %16s\n", "p", "pure AIMD", "Reno TCP", "AIMD+timeouts")
	cell := func(v float64) string {
		if math.IsNaN(v) {
			return "-"
		}
		return fmt.Sprintf("%.3f", v)
	}
	for _, pt := range pts {
		fmt.Fprintf(&b, "%8.2f %12s %12s %16s\n", pt.P, cell(pt.PureAIMD), cell(pt.Reno), cell(pt.AIMDTimeouts))
	}
	return b.String()
}

// MarshalJSON renders NaN cells (outside a model's validity range) as
// null, keeping the point JSON-encodable.
func (p Fig20Point) MarshalJSON() ([]byte, error) {
	opt := func(v float64) *float64 {
		if math.IsNaN(v) {
			return nil
		}
		return &v
	}
	return json.Marshal(struct {
		P            float64  `json:"p"`
		PureAIMD     *float64 `json:"pureAIMD"`
		Reno         *float64 `json:"reno"`
		AIMDTimeouts *float64 `json:"aimdTimeouts"`
	}{p.P, opt(p.PureAIMD), opt(p.Reno), opt(p.AIMDTimeouts)})
}

func fig20Experiment(bool, int64, MatrixConfig) (string, any) {
	res := Fig20(nil)
	return RenderFig20(res), res
}
