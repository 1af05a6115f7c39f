package exp

import (
	"testing"

	"slowcc/internal/metrics"
	"slowcc/internal/topology"
)

// TestSoakMixedTraffic runs a long, adversarial scenario mixing every
// algorithm with churn (flows stopping and restarting via new flows),
// an oscillating CBR, scripted extra loss, and checks the global
// invariants hold throughout via the invariant auditing layer (enabled
// package-wide by TestMain), which verifies conservation at every
// accounting transition rather than on a sampling cadence. Guarded by
// -short.
func TestSoakMixedTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	eng, d := noCell.newScenario(99, topology.Config{Rate: 10e6})
	mon := metrics.NewLossMonitor(1)
	d.Fwd[0].AddTap(mon.Tap())

	algos := []AlgoSpec{
		TCPAlgo(0.5), SACKTCPAlgo(0.5), TCPAlgo(1.0 / 64),
		SQRTAlgo(0.5), IIADAlgo(0.5), RAPAlgo(1.0 / 8),
		TFRCAlgo(TFRCOpts{K: 8, HistoryDiscounting: true}),
		TFRCAlgo(TFRCOpts{K: 64, Conservative: true}),
		TEARAlgo(0),
	}
	flows := make([]Flow, len(algos))
	for i, a := range algos {
		flows[i] = a.Make(eng, d, i+1)
	}
	startAll(d, flows, 0)
	withReverseTraffic(eng, d, 2)

	// Churn: stop and never restart three flows mid-run; late-join three
	// fresh ones.
	eng.At(100, flows[0].Sender.Stop)
	eng.At(120, flows[3].Sender.Stop)
	eng.At(140, flows[6].Sender.Stop)
	late := []Flow{
		TCPAlgo(0.5).Make(eng, d, 100),
		TFRCAlgo(TFRCOpts{K: 8}).Make(eng, d, 101),
		TEARAlgo(0).Make(eng, d, 102),
	}
	startAll(d, late, 150)

	eng.RunUntil(300)
	if a := d.Cfg.Audit; a != nil {
		if err := a.Err(); err != nil {
			t.Fatalf("soak breached invariants: %v", err)
		}
	} else {
		t.Fatal("soak ran without the invariant auditor attached")
	}
	all := append(append([]Flow{}, flows...), late...)
	var total int64
	for i, f := range all {
		if f.RecvBytes() < 0 {
			t.Fatalf("flow %d negative bytes", i)
		}
		total += f.RecvBytes()
	}
	util := float64(total) * 8 / (10e6 * 300)
	if util < 0.5 || util > 1.01 {
		t.Fatalf("soak utilization %.2f outside [0.5, 1.01]", util)
	}
	// Every surviving flow moved data in the second half.
	for i, f := range late {
		if f.RecvBytes() == 0 {
			t.Fatalf("late flow %d starved entirely", i)
		}
	}
}
