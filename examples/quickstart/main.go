// Quickstart: one TCP flow and one TFRC flow share the paper's default
// dumbbell (10 Mbps bottleneck, 50 ms RTT, RED) for a simulated minute.
// It prints each flow's throughput, the bottleneck loss rate, and the
// smoothness of each flow's sending rate — the basic trade the paper is
// about: TFRC trades a little agility for a much smoother rate.
package main

import (
	"fmt"

	"slowcc"
)

func main() {
	eng := slowcc.NewEngine(1)
	d := slowcc.NewDumbbell(eng, slowcc.DumbbellConfig{Rate: 10e6, Seed: 1})

	mon := slowcc.NewLossMonitor(0.5)
	d.Fwd[0].AddTap(mon.Tap())

	tcp := slowcc.TCP(0.5).Make(eng, d, 1)
	tfrc := slowcc.TFRC(slowcc.TFRCOptions{K: 8, HistoryDiscounting: true}).Make(eng, d, 2)
	eng.At(0, tcp.Sender.Start)
	eng.At(0, tfrc.Sender.Start)

	// Sample each sender's rate once per second for the smoothness
	// statistics.
	tcpMeter := slowcc.NewMeter(eng, 1.0, tcp.SentBytes)
	tfrcMeter := slowcc.NewMeter(eng, 1.0, tfrc.SentBytes)

	const duration = 60.0
	eng.RunUntil(duration)

	fmt.Println("quickstart: TCP(1/2) vs TFRC(8) on a 10 Mbps dumbbell, 60s")
	fmt.Printf("  %-10s %12s %12s %12s\n", "flow", "Mbps", "minRatio", "CoV")
	report := func(name string, f slowcc.Flow, m *slowcc.Meter) {
		sm := slowcc.ComputeSmoothness(m.Rates()[10:]) // skip slow-start
		fmt.Printf("  %-10s %12.3f %12.3f %12.3f\n",
			name, float64(f.RecvBytes())*8/duration/1e6, sm.MinRatio, sm.CoV)
	}
	report("TCP(1/2)", tcp, tcpMeter)
	report("TFRC(8)", tfrc, tfrcMeter)
	fmt.Printf("  bottleneck loss rate: %.2f%%\n", mon.RateOver(0, duration)*100)
}
