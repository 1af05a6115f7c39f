// The behavioural oracle: the seed-1 macro run — two standard TCP flows
// over the paper's 10 Mbps dumbbell for 30 s — executes exactly 403989
// events whose stream digest is 0x86e6964d4bd964b3, and every layer of
// machinery that can be wired around it while switched off (and a
// journey recorder switched on) must leave that stream, and the packet
// story at the bottleneck, untouched. One
// helper declares the run; one table lists the layers.
package slowcc_test

import (
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"slowcc"
	"slowcc/internal/faults"
	"slowcc/internal/invariant"
	"slowcc/internal/netem"
	"slowcc/internal/obs"
	"slowcc/internal/obs/journey"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
	"slowcc/internal/trace"
)

const (
	pinnedEvents = 403989
	pinnedDigest = 0x86e6964d4bd964b3
)

// layer is one piece of machinery attached to the macro run. The zero
// layer is the plain run.
type layer struct {
	name string
	// stock runs before the engine is built, outside what the run counts.
	stock func(t *testing.T)
	// queue is the engine's event queue (the zero value is the calendar
	// queue every production engine uses).
	queue sim.QueueKind
	// before runs once the engine exists and may edit the dumbbell's
	// config; after runs on the built dumbbell before any flow wires.
	before func(eng *slowcc.Engine, cfg *slowcc.DumbbellConfig)
	after  func(d *slowcc.Dumbbell)
	// undigested says the layer detached the stream digest, so only the
	// event count and the trace can be held.
	undigested bool
	// check holds what is specific to the layer, after the run.
	check func(t *testing.T, r macroRun)
}

type macroRun struct {
	eng   *slowcc.Engine
	d     *slowcc.Dumbbell
	dig   *sim.StreamDigest
	trace []trace.Event // every packet offered to the forward bottleneck
	// mallocs is how many heap objects building and running took.
	mallocs uint64
}

// runMacro executes the macro run with l attached.
func runMacro(l layer) macroRun {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r := macroRun{eng: sim.NewWithQueue(1, l.queue), dig: &sim.StreamDigest{}}
	r.eng.SetStreamDigest(r.dig)
	cfg := slowcc.DumbbellConfig{Rate: 10e6, Seed: 1}
	if l.before != nil {
		l.before(r.eng, &cfg)
	}
	r.d = slowcc.NewDumbbell(r.eng, cfg)
	rec := &slowcc.Tracer{}
	r.d.Fwd[0].AddTap(rec.LinkTap())
	if l.after != nil {
		l.after(r.d)
	}
	f1 := slowcc.TCP(0.5).Make(r.eng, r.d, 1)
	f2 := slowcc.TCP(0.5).Make(r.eng, r.d, 2)
	r.eng.At(0, f1.Sender.Start)
	r.eng.At(0, f2.Sender.Start)
	r.eng.RunUntil(30)
	r.trace = rec.Events()
	runtime.ReadMemStats(&m1)
	r.mallocs = m1.Mallocs - m0.Mallocs
	return r
}

// raceDetector reports whether the test binary was built with -race.
func raceDetector() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// holdPinned asserts r is the pinned stream: event count, digest (when
// one is attached), and a bottleneck trace equal to the plain run's
// event for event.
func holdPinned(t *testing.T, r, plain macroRun, undigested bool) {
	t.Helper()
	if got := r.eng.Steps(); got != pinnedEvents {
		t.Fatalf("executed %d events, want the pinned %d", got, pinnedEvents)
	}
	if !undigested {
		if r.dig.Events() != pinnedEvents || r.dig.Sum() != pinnedDigest {
			t.Fatalf("stream digest %016x over %d events, want %016x over %d",
				r.dig.Sum(), r.dig.Events(), uint64(pinnedDigest), pinnedEvents)
		}
	}
	if len(r.trace) != len(plain.trace) {
		t.Fatalf("bottleneck trace has %d events, the plain run's %d", len(r.trace), len(plain.trace))
	}
	for i := range plain.trace {
		if r.trace[i] != plain.trace[i] {
			t.Fatalf("trace event %d differs: %+v, plain run %+v", i, r.trace[i], plain.trace[i])
		}
	}
}

func TestWiredButOffLayersKeepPinnedStream(t *testing.T) {
	var (
		inj   *faults.Injector
		idle  *topology.Net
		smp   *obs.Sampler
		jr    = journey.New()
		plain macroRun
	)
	layers := []layer{
		{name: "plain"},
		// The reference queue pops the identical (at, seq) order, so one
		// hex string compares two queue implementations.
		{name: "heap queue", queue: sim.HeapQueue},
		// The digest the other rows carry is itself a pure observer.
		{name: "digest detached", undigested: true,
			after: func(d *slowcc.Dumbbell) { d.Eng.SetStreamDigest(nil) },
			check: func(t *testing.T, r macroRun) {
				if r.dig.Events() != 0 {
					t.Fatalf("detached digest still folded %d events", r.dig.Events())
				}
			}},
		// ObserveJourneys(nil) attaches no tap: the journey-free state
		// every link starts in.
		{name: "journeys nil",
			after: func(d *slowcc.Dumbbell) { d.ObserveJourneys(nil) }},
		// Switched on, too: a journey recorder recording every per-hop span
		// costs zero events, because link taps observe without scheduling
		// anything. Its per-hop components tile the measured end-to-end
		// delay of every delivered packet.
		{name: "enabled journey recorder",
			after: func(d *slowcc.Dumbbell) { d.ObserveJourneys(jr) },
			check: func(t *testing.T, r macroRun) {
				jr.Finalize()
				n, e2e, queue, tx, prop := jr.Attribution()
				if n == 0 {
					t.Fatal("journey recorder saw no end-to-end packets")
				}
				if sum := queue + tx + prop; math.Abs(sum-e2e) > 1e-9*float64(n) {
					t.Fatalf("attribution does not tile: q+tx+prop %v vs e2e %v over %d packets", sum, e2e, n)
				}
			}},
		// A budget the run never reaches halts nothing, and its loop pops
		// the same events the unbudgeted loop does.
		{name: "budget never reached",
			before: func(eng *slowcc.Engine, _ *slowcc.DumbbellConfig) {
				eng.SetBudget(&sim.Budget{MaxEvents: 1 << 40, MaxWall: time.Hour})
			},
			check: func(t *testing.T, r macroRun) {
				if h := r.eng.Halted(); h != nil {
					t.Fatalf("an unreached budget halted the run: %v", h)
				}
			}},
		// A zero-config injector hands the entry handler back untouched
		// and schedules nothing.
		{name: "fault injector disabled",
			before: func(eng *slowcc.Engine, cfg *slowcc.DumbbellConfig) {
				inj = faults.New(eng, faults.Config{})
				cfg.Fault = inj
			},
			check: func(t *testing.T, r macroRun) {
				if inj.Attached() {
					t.Fatal("disabled injector attached a handler")
				}
			}},
		// A second topology on the same engine — built, seeded, routing
		// tables allocated, no flow ever wired — reaches the event loop
		// with nothing.
		{name: "idle parking lot",
			before: func(eng *slowcc.Engine, _ *slowcc.DumbbellConfig) {
				idle = topology.NewNet(eng, topology.NetConfig{
					Hops: []topology.Hop{{Rate: 10e6}, {Rate: 10e6}},
					Seed: 99,
				})
			},
			check: func(t *testing.T, r macroRun) {
				if got := idle.Fwd[0].Stats.Arrivals + idle.Fwd[1].Stats.Arrivals; got != 0 {
					t.Fatalf("idle chain carried %d packets", got)
				}
			}},
		// A sampler at interval 0 sits in the engine's probe slot without
		// ever asking to wake.
		{name: "sampler at interval 0",
			after: func(d *slowcc.Dumbbell) {
				smp = obs.NewSampler(0)
				d.ObserveProbes(smp)
				smp.Install(d.Eng)
			},
			check: func(t *testing.T, r macroRun) {
				if n := len(smp.Samples()); n != 0 {
					t.Fatalf("disabled sampler recorded %d samples", n)
				}
			}},
		// An unrelated scenario — another seed, a parking lot whose RED
		// drew — run and released first hands the macro run its packets,
		// timers, calendar ring, queue buffers and generators. It is
		// released mid-flight, with packets queued and propagating (each
		// one an engine-owned delivery timer), so the macro run is fed
		// the timers and packets Release reclaimed, and its pool must
		// get every packet back. On one P with the collector off nothing
		// parked is lost, so the row must also allocate fewer objects
		// than the plain run, or it tested nothing.
		{name: "stocked from a released scenario",
			stock: func(t *testing.T) {
				prevProcs, prevGC := runtime.GOMAXPROCS(1), debug.SetGCPercent(-1)
				t.Cleanup(func() {
					debug.SetGCPercent(prevGC)
					runtime.GOMAXPROCS(prevProcs)
				})
				eng := sim.New(7)
				n := topology.NewNet(eng, topology.NetConfig{
					Hops: []topology.Hop{{Rate: 10e6}, {Rate: 10e6}},
					Seed: 7,
				})
				var propagating int
				hops := append(append([]*netem.Link{}, n.Fwd...), n.Rev...)
				for _, l := range hops {
					l.AddTap(func(_ *netem.Link, op netem.TapOp, _ *netem.Packet, _ sim.Time) {
						switch op {
						case netem.TapTxEnd:
							propagating++
						case netem.TapDeliver:
							propagating--
						}
					})
				}
				for i := 1; i <= 4; i++ {
					eng.At(0, slowcc.TCP(0.5).Make(eng, n, i).Sender.Start)
				}
				eng.RunUntil(10)
				if red := n.Fwd[0].Q.(*netem.RED); red.EarlyDrops == 0 {
					t.Fatal("the released scenario's RED never dropped early, so never drew")
				}
				queued := 0
				for _, l := range hops {
					queued += l.Q.Len()
				}
				if propagating == 0 || queued == 0 {
					t.Fatalf("the released scenario had %d packets propagating and %d queued: want both", propagating, queued)
				}
				n.Release()
				if p := n.Pool; p.Gets != p.Puts {
					t.Fatalf("the released scenario's pool handed out %d packets and got %d back", p.Gets, p.Puts)
				}
			},
			check: func(t *testing.T, r macroRun) {
				// The race detector's sync.Pool drops a random quarter of
				// what it is given, so there the lists may not arrive.
				if r.mallocs >= plain.mallocs && !raceDetector() {
					t.Fatalf("stocked run allocated %d objects, the plain run %d", r.mallocs, plain.mallocs)
				}
			}},
	}
	plain = runMacro(layer{})
	for _, l := range layers {
		t.Run(l.name, func(t *testing.T) {
			if l.stock != nil {
				l.stock(t)
			}
			r := runMacro(l)
			holdPinned(t, r, plain, l.undigested)
			if l.check != nil {
				l.check(t, r)
			}
		})
	}
}

// Every link watcher switched on at once — the auditor on every link, a
// journey recorder on every link, and a loss monitor, a trace tap and a
// bounded trace ring on every forward hop beside runMacro's own trace tap —
// still runs the pinned stream: taps only read. The watchers do not
// disturb one another either: the journey attribution equals a run
// where the recorder is alone, and the auditor finds nothing.
func TestEveryLinkWatcherAtOnceKeepsPinnedStream(t *testing.T) {
	alone := journey.New()
	runMacro(layer{after: func(d *slowcc.Dumbbell) { d.ObserveJourneys(alone) }})

	var (
		aud  *invariant.Auditor
		jr   = journey.New()
		mon  = slowcc.NewLossMonitor(0.5)
		tr   slowcc.Tracer
		ring = trace.Recorder{Limit: 512}
	)
	r := runMacro(layer{
		before: func(eng *slowcc.Engine, cfg *slowcc.DumbbellConfig) {
			aud = invariant.New(eng)
			cfg.Audit = aud
		},
		after: func(d *slowcc.Dumbbell) {
			d.ObserveJourneys(jr)
			for _, l := range d.Fwd {
				l.AddTap(mon.Tap())
				l.AddTap(tr.HopTap("lr"))
				l.AddTap(ring.LinkTap())
			}
		},
	})
	holdPinned(t, r, runMacro(layer{}), false)
	if err := aud.Err(); err != nil {
		t.Fatalf("auditor beside the other watchers: %v", err)
	}
	n, e2e, queue, tx, prop := jr.Attribution()
	if an, ae2e, aqueue, atx, aprop := alone.Attribution(); n == 0 ||
		n != an || e2e != ae2e || queue != aqueue || tx != atx || prop != aprop {
		t.Fatalf("journey attribution %d/%v/%v/%v/%v, alone %d/%v/%v/%v/%v",
			n, e2e, queue, tx, prop, an, ae2e, aqueue, atx, aprop)
	}
	// Each arrival-counting watcher saw exactly the arrivals runMacro's
	// own tap did.
	var drops int
	for _, ev := range r.trace {
		if ev.Op == slowcc.TraceDrop {
			drops++
		}
	}
	if tr.Total() != len(r.trace) || ring.Total() != len(r.trace) {
		t.Fatalf("trace tap saw %d arrivals, trace ring %d, want %d", tr.Total(), ring.Total(), len(r.trace))
	}
	if got, want := mon.RateOver(0, 30), float64(drops)/float64(len(r.trace)); got != want {
		t.Fatalf("loss monitor rate %v, want %v (%d drops of %d arrivals)", got, want, drops, len(r.trace))
	}
}

// TestTraceRunFaultSpec checks the fault layer at the CLI-facing
// surface: a "none" spec wires nothing and keeps the pinned stream; an
// outage spec changes the run and records itself in the manifest; an
// invalid spec panics.
func TestTraceRunFaultSpec(t *testing.T) {
	base := slowcc.TraceRunConfig{
		Seed: 1, Rate: 10e6, Duration: 30,
		Algos: []slowcc.Algorithm{slowcc.TCP(0.5), slowcc.TCP(0.5)},
	}

	none := base
	none.FaultSpec = "none"
	r := slowcc.NewTraceRun(none)
	r.Run()
	if got := r.Eng.Steps(); got != pinnedEvents {
		t.Fatalf("FaultSpec 'none' run executed %d events, want the pinned %d", got, pinnedEvents)
	}
	if r.Manifest("t").Config["fault"] != "none" {
		t.Fatal("manifest does not record the fault spec")
	}

	outage := base
	outage.FaultSpec = "down:10+5"
	r2 := slowcc.NewTraceRun(outage)
	r2.Run()
	if r2.Eng.Steps() == pinnedEvents {
		t.Fatal("a 5s bottleneck outage left the event count unchanged")
	}
	if r2.D.Fwd[0].Transitions != 2 {
		t.Fatalf("outage run saw %d link transitions, want 2", r2.D.Fwd[0].Transitions)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("invalid FaultSpec did not panic")
		}
	}()
	bad := base
	bad.FaultSpec = "corrupt:2"
	slowcc.NewTraceRun(bad)
}
