package netem_test

// External test package: obs imports netem, so pinning the cost of the
// wired-but-disabled obs layer on the link hot path has to live outside
// package netem.

import (
	"testing"

	"slowcc/internal/invariant"
	"slowcc/internal/metrics"
	"slowcc/internal/netem"
	"slowcc/internal/obs"
	"slowcc/internal/obs/journey"
	"slowcc/internal/sim"
	"slowcc/internal/trace"
)

// Steady-state pooled forwarding with a disabled sampler in the probe
// slot must still allocate nothing per packet: the disabled sampler is
// one comparison per event. The counters topology.Net.Counters reads
// are the plain fields the link and pool maintain anyway.
func TestAllocsLinkForwardZeroWithObsWired(t *testing.T) {
	eng := sim.New(1)
	pool := &netem.PacketPool{}
	l := netem.NewLink(eng, 10e6, 0.001, netem.NewDropTail(64), netem.Sink{Pool: pool})
	l.Pool = pool

	smp := obs.NewSampler(0) // disabled
	smp.Install(eng)

	send := func() {
		p := pool.Get()
		p.Kind = netem.Data
		p.Size = 1000
		l.Send(p)
	}
	for i := 0; i < 64; i++ {
		send() // warm the pool and the engine's timer free list
	}
	eng.RunUntil(1)
	avg := testing.AllocsPerRun(200, func() {
		send()
		eng.RunUntil(eng.Now() + 0.01)
	})
	if avg != 0 {
		t.Fatalf("obs-wired link forwarding allocates %v times per packet, want 0", avg)
	}
	if len(smp.Samples()) != 0 {
		t.Fatalf("disabled sampler recorded %d samples", len(smp.Samples()))
	}
	if l.Stats.Arrivals == 0 || pool.Reuses == 0 {
		t.Fatalf("the counters saw no traffic: %d arrivals, %d reuses", l.Stats.Arrivals, pool.Reuses)
	}
}

// The tap fan-out itself allocates nothing: with a loss monitor, a trace
// tap, a journey recorder and the auditor all attached to one link (each
// bounded so its own storage stops growing after the warm-up), steady
// forwarding and the queue-refusal path both stay at zero allocations.
func TestAllocsLinkZeroWithEveryWatcherAttached(t *testing.T) {
	for _, tc := range []struct {
		name  string
		burst int // packets offered per measured run; 66 overflows the queue
		step  sim.Time
	}{
		{"forward", 1, 0.01},
		{"drop", 66, 0.1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New(1)
			pool := &netem.PacketPool{}
			l := netem.NewLink(eng, 10e6, 0.001, netem.NewDropTail(64), netem.Sink{Pool: pool})
			l.Pool = pool

			mon := metrics.NewLossMonitor(0.5)
			mon.EnsureHorizon(60)
			l.AddTap(mon.Tap())
			rec := &trace.Recorder{Limit: 256}
			l.AddTap(rec.HopTap("lr"))
			jr := journey.New()
			jr.MaxSpans = 256
			jr.AttachLink("lr", l, true)
			aud := invariant.New(eng)
			aud.WatchLink("lr", l)

			send := func() {
				for i := 0; i < tc.burst; i++ {
					p := pool.Get()
					p.Kind = netem.Data
					p.Size = 1000
					l.Send(p)
				}
			}
			for i := 0; i < 8; i++ { // fill the trace ring and the span cap
				for j := 0; j < 64; j++ {
					send()
				}
				eng.RunUntil(eng.Now() + 1)
			}
			drops := l.Stats.Drops
			avg := testing.AllocsPerRun(200, func() {
				send()
				eng.RunUntil(eng.Now() + tc.step)
			})
			if avg != 0 {
				t.Fatalf("watched link allocates %v times per run, want 0", avg)
			}
			if tc.burst > 1 && (l.Stats.Drops == drops || mon.RateOver(0, eng.Now()) == 0) {
				t.Fatal("measured bursts never overflowed the queue; drop path untested")
			}
			if err := aud.Err(); err != nil {
				t.Fatal(err)
			}
			if spans, _ := jr.Spans(); rec.Total() == 0 || len(spans) == 0 {
				t.Fatalf("watchers saw nothing: trace %d events, %d spans", rec.Total(), len(spans))
			}
		})
	}
}
