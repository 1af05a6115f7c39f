// Tracing demonstrates the packet-level observability layer: it runs a
// TCP flow against a TFRC flow on the default dumbbell, records every
// bottleneck event plus every TCP send, writes the full packet trace as
// TSV to stdout-adjacent file, and prints a per-second rate table
// derived from the trace itself.
package main

import (
	"fmt"
	"os"

	"slowcc"
)

func main() {
	eng := slowcc.NewEngine(1)
	d := slowcc.NewDumbbell(eng, slowcc.DumbbellConfig{Rate: 10e6, Seed: 1})

	var rec slowcc.Tracer
	d.Fwd[0].AddTap(rec.LinkTap())

	tcp := slowcc.TCP(0.5).Make(eng, d, 1)
	tfrc := slowcc.TFRC(slowcc.TFRCOptions{K: 8, HistoryDiscounting: true}).Make(eng, d, 2)
	eng.At(0, tcp.Sender.Start)
	eng.At(0, tfrc.Sender.Start)
	eng.RunUntil(30)

	fmt.Println("per-second goodput at the bottleneck, from the packet trace (Mbps):")
	fmt.Printf("%6s %10s %10s\n", "t", "TCP", "TFRC")
	r1 := rec.BinRates(1, slowcc.TraceRecv, 1)
	r2 := rec.BinRates(2, slowcc.TraceRecv, 1)
	for i := 0; i < len(r1) && i < len(r2); i++ {
		fmt.Printf("%6d %10.2f %10.2f\n", i+1, r1[i]*8/1e6, r2[i]*8/1e6)
	}
	drops := len(rec.Filter(-1, slowcc.TraceDrop))
	fmt.Printf("\ntrace captured %d events (%d drops)\n", rec.Len(), drops)

	f, err := os.CreateTemp("", "slowcc-trace-*.tsv")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	if err := rec.WriteTSV(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("full TSV trace written to %s\n", f.Name())
}
