package exp

import (
	"math"
	"testing"

	"slowcc/internal/netem"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

// TestConservationAtBottleneck checks the fundamental accounting law on
// a busy mixed-traffic scenario: every packet offered to the bottleneck
// is either delivered, dropped, or still queued/in transmission at the
// horizon.
func TestConservationAtBottleneck(t *testing.T) {
	t.Parallel()
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 10e6, Seed: 81})
	algos := []AlgoSpec{
		TCPAlgo(0.5), TCPAlgo(1.0 / 8), SQRTAlgo(0.5),
		TFRCAlgo(TFRCOpts{K: 8}), RAPAlgo(0.5), TEARAlgo(0),
	}
	flows := make([]Flow, len(algos))
	for i, a := range algos {
		flows[i] = a.Make(eng, d, i+1)
	}
	startAll(d, flows, 0)
	eng.RunUntil(60)

	s := d.Fwd[0].Stats
	inSystem := int64(d.Fwd[0].Q.Len())
	// Departures may lag by the one packet in transmission.
	slack := int64(1)
	if s.Arrivals-s.Drops-s.Departures-inSystem > slack ||
		s.Arrivals-s.Drops-s.Departures-inSystem < 0 {
		t.Fatalf("conservation violated: arrivals=%d drops=%d departures=%d queued=%d",
			s.Arrivals, s.Drops, s.Departures, inSystem)
	}
}

// TestDeterministicReplay runs the same mixed scenario twice and
// requires bit-identical flow counters.
func TestDeterministicReplay(t *testing.T) {
	t.Parallel()
	run := func() []int64 {
		eng := sim.New(7)
		d := topology.New(eng, topology.Config{Rate: 10e6, Seed: 7})
		algos := []AlgoSpec{
			TCPAlgo(0.5), TFRCAlgo(TFRCOpts{K: 8, Conservative: true}),
			SQRTAlgo(0.5), RAPAlgo(0.5), TEARAlgo(0),
		}
		flows := make([]Flow, len(algos))
		for i, a := range algos {
			flows[i] = a.Make(eng, d, i+1)
		}
		startAll(d, flows, 0)
		withReverseTraffic(eng, d, 1)
		eng.RunUntil(40)
		var out []int64
		for _, f := range flows {
			out = append(out, f.RecvBytes(), f.SentBytes())
		}
		out = append(out, d.Fwd[0].Stats.Drops, d.Rev[0].Stats.Drops)
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at counter %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestSeedSensitivity makes sure different seeds actually change the
// realization (a stuck RNG would silently undermine every multi-seed
// average).
func TestSeedSensitivity(t *testing.T) {
	t.Parallel()
	run := func(seed int64) int64 {
		eng := sim.New(seed)
		d := topology.New(eng, topology.Config{Rate: 10e6, Seed: seed})
		f1 := TCPAlgo(0.5).Make(eng, d, 1)
		f2 := TCPAlgo(0.5).Make(eng, d, 2)
		startAll(d, []Flow{f1, f2}, 0)
		eng.RunUntil(30)
		return f1.RecvBytes()
	}
	if run(1) == run(2) {
		t.Fatal("different seeds produced identical realizations")
	}
}

// TestNoTrafficNoLoss: an idle dumbbell must stay perfectly clean.
func TestNoTrafficNoLoss(t *testing.T) {
	t.Parallel()
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 1e6, Seed: 1})
	eng.RunUntil(10)
	if d.Fwd[0].Stats.Arrivals != 0 || d.Fwd[0].Stats.Drops != 0 {
		t.Fatalf("idle network saw traffic: %+v", d.Fwd[0].Stats)
	}
}

// TestAllAlgorithmsSurviveExtremeCongestion floods a tiny link with
// every algorithm at once and checks nothing deadlocks, panics, or
// produces negative counters.
func TestAllAlgorithmsSurviveExtremeCongestion(t *testing.T) {
	t.Parallel()
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 500e3, Seed: 82}) // 0.5 Mbps
	algos := []AlgoSpec{
		TCPAlgo(0.5), TCPAlgo(1.0 / 256), SQRTAlgo(1.0 / 256), IIADAlgo(0.5),
		TFRCAlgo(TFRCOpts{K: 256}), TFRCAlgo(TFRCOpts{K: 1, Conservative: true}),
		RAPAlgo(1.0 / 256), TEARAlgo(0),
	}
	flows := make([]Flow, len(algos))
	for i, a := range algos {
		flows[i] = a.Make(eng, d, i+1)
	}
	startAll(d, flows, 0)
	eng.RunUntil(60)
	var total int64
	for i, f := range flows {
		if f.RecvBytes() < 0 || f.SentBytes() < 0 {
			t.Fatalf("flow %d negative counters", i)
		}
		total += f.RecvBytes()
	}
	if total == 0 {
		t.Fatal("nothing delivered at all under extreme congestion")
	}
	// Delivered volume cannot exceed link capacity.
	if float64(total)*8 > 500e3*60*1.02 {
		t.Fatalf("delivered %d bytes exceeds link capacity", total)
	}
}

// TestStopMidRecovery stops every sender mid-run and verifies the event
// queue drains (no immortal timers).
func TestStopMidRecovery(t *testing.T) {
	t.Parallel()
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 5e6, Seed: 83})
	algos := []AlgoSpec{
		TCPAlgo(0.5), TFRCAlgo(TFRCOpts{K: 8}), RAPAlgo(0.5), TEARAlgo(0),
	}
	flows := make([]Flow, len(algos))
	for i, a := range algos {
		flows[i] = a.Make(eng, d, i+1)
	}
	startAll(d, flows, 0)
	eng.At(10, func() {
		for _, f := range flows {
			f.Sender.Stop()
		}
	})
	eng.RunUntil(11)
	sent := make([]int64, len(flows))
	for i, f := range flows {
		sent[i] = f.SentBytes()
	}
	eng.RunUntil(30)
	for i, f := range flows {
		if f.SentBytes() != sent[i] {
			t.Fatalf("flow %d (%s) kept sending after Stop", i, algos[i].Name)
		}
	}
	// TFRC/TEAR receivers keep periodic feedback timers alive; that is
	// acceptable, but the engine must not grow without bound.
	if eng.Pending() > 100 {
		t.Fatalf("%d events still pending long after Stop", eng.Pending())
	}
}

// TestThroughputNeverExceedsCapacity across a sweep of configurations.
func TestThroughputNeverExceedsCapacity(t *testing.T) {
	t.Parallel()
	for _, rate := range []float64{1e6, 10e6, 45e6} {
		eng := sim.New(3)
		d := topology.New(eng, topology.Config{Rate: rate, Seed: 84})
		f := TCPAlgo(0.5).Make(eng, d, 1)
		startAll(d, []Flow{f}, 0)
		eng.RunUntil(20)
		util := float64(f.RecvBytes()) * 8 / (rate * 20)
		if util > 1.0+1e-9 {
			t.Fatalf("utilization %v > 1 at rate %v", util, rate)
		}
	}
}

// TestPropRTTMatchesMeasured wires a one-packet exchange and compares
// the measured RTT against the built net's PropRTT.
func TestPropRTTMatchesMeasured(t *testing.T) {
	t.Parallel()
	eng := sim.New(1)
	cfg := topology.Config{Rate: 100e6, Seed: 85}
	d := topology.New(eng, cfg)
	var measured sim.Time
	var sentAt sim.Time
	snd := netem.HandlerFunc(func(p *netem.Packet) {
		measured = eng.Now() - sentAt
	})
	var rcvIn netem.Handler
	rcv := netem.HandlerFunc(func(p *netem.Packet) {
		rcvIn.Handle(&netem.Packet{Flow: 1, Kind: netem.Ack, Size: 40})
	})
	sndIn := d.PathFwd(1, 0, 1, rcv, d.Cfg.AccessDelay)
	rcvIn = d.PathRev(1, 1, 0, snd, d.Cfg.AccessDelay)
	sentAt = 0
	sndIn.Handle(&netem.Packet{Flow: 1, Kind: netem.Data, Size: 1000})
	eng.Run()
	want := d.PropRTT()
	if math.Abs(float64(measured-want)) > 0.002 {
		t.Fatalf("measured RTT %v vs configured %v", measured, want)
	}
}
