// Smoothness runs the paper's Section 4.3 best-case/worst-case pair for
// equation-based congestion control. On a mildly bursty scripted loss
// pattern TFRC's loss-interval averaging gives it a much smoother
// sending rate than TCP(1/8); on an adversarial pattern tuned to its
// averaging window, TFRC does worse than TCP(1/8) in both smoothness
// and throughput.
package main

import (
	"fmt"

	"slowcc"
)

func main() {
	mild := slowcc.DefaultFig17()
	mild.Duration = 120
	mild.Seed = 1
	fmt.Println(slowcc.RenderSmoothness("Mild bursty pattern (Figure 17)", slowcc.RunSmoothness(mild)))

	severe := slowcc.DefaultFig18()
	severe.Duration = 120
	severe.Seed = 1
	fmt.Println(slowcc.RenderSmoothness("Severe bursty pattern (Figure 18)", slowcc.RunSmoothness(severe)))

	binom := slowcc.DefaultFig19()
	binom.Duration = 120
	binom.Seed = 1
	fmt.Println(slowcc.RenderSmoothness("Binomial algorithms on the mild pattern (Figure 19)", slowcc.RunSmoothness(binom)))
}
