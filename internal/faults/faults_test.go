package faults_test

import (
	"math"
	"testing"

	"slowcc/internal/faults"
	"slowcc/internal/netem"
	"slowcc/internal/sim"
)

// recorder terminates packet journeys, recording sequence and arrival
// time and releasing each packet back to the pool.
type recorder struct {
	eng  *sim.Engine
	pool *netem.PacketPool
	seqs []int64
	at   []sim.Time
}

func (r *recorder) Handle(p *netem.Packet) {
	r.seqs = append(r.seqs, p.Seq)
	r.at = append(r.at, r.eng.Now())
	r.pool.Put(p)
}

// rig is a one-link test harness: a source offers packets to entry
// (the injector's wrapped handler), the link delivers to rec.
type rig struct {
	eng   *sim.Engine
	pool  *netem.PacketPool
	link  *netem.Link
	rec   *recorder
	entry netem.Handler
}

func newRig(t *testing.T, cfg faults.Config) (*rig, *faults.Injector) {
	t.Helper()
	eng := sim.New(1)
	pool := &netem.PacketPool{}
	rec := &recorder{eng: eng, pool: pool}
	link := netem.NewLink(eng, 8e6, 0.001, netem.NewDropTail(1000), rec)
	link.Pool = pool
	in := faults.New(eng, cfg)
	entry := in.Attach(link, link, pool)
	return &rig{eng: eng, pool: pool, link: link, rec: rec, entry: entry}, in
}

// sendEvery schedules n packet sends, one every interval seconds
// starting at interval.
func (r *rig) sendEvery(n int, interval sim.Time) {
	for i := 0; i < n; i++ {
		i := i
		r.eng.At(sim.Time(i+1)*interval, func() {
			p := r.pool.Get()
			p.Seq, p.Size = int64(i), 1000
			r.entry.Handle(p)
		})
	}
}

func TestDisabledInjectorIsFree(t *testing.T) {
	eng := sim.New(1)
	pool := &netem.PacketPool{}
	rec := &recorder{eng: eng, pool: pool}
	link := netem.NewLink(eng, 8e6, 0.001, netem.NewDropTail(10), rec)
	var in *faults.Injector // nil injector: topology wired without -fault
	if got := in.Attach(link, link, pool); got != netem.Handler(link) {
		t.Fatal("nil injector did not return the entry unchanged")
	}
	in = faults.New(eng, faults.Config{}) // zero config: -fault none
	if got := in.Attach(link, link, pool); got != netem.Handler(link) {
		t.Fatal("disabled injector did not return the entry unchanged")
	}
	if eng.Pending() != 0 {
		t.Fatalf("disabled injector scheduled %d timers", eng.Pending())
	}
	if in.Attached() {
		t.Fatal("disabled injector claims to be attached")
	}
}

func TestOutageWindowStallsAndRecovers(t *testing.T) {
	r, _ := newRig(t, faults.Config{Windows: []faults.Window{{At: 0.05, Dur: 0.1}}})
	r.sendEvery(20, 0.01) // sends at 0.01..0.20; outage covers 0.05..0.15
	r.eng.Run()
	if len(r.rec.seqs) != 20 {
		t.Fatalf("delivered %d packets, want all 20 under DownQueue", len(r.rec.seqs))
	}
	for i, s := range r.rec.seqs {
		if s != int64(i) {
			t.Fatalf("delivery %d has seq %d; outage must preserve order", i, s)
		}
	}
	// Nothing may arrive inside the blackout (last pre-outage packet,
	// sent at 0.04, lands at 0.042).
	for i, at := range r.rec.at {
		if at > 0.043 && at < 0.15 {
			t.Fatalf("packet %d delivered at %v, inside the outage", i, at)
		}
	}
	if r.link.Transitions != 2 {
		t.Fatalf("Transitions = %d, want 2", r.link.Transitions)
	}
	if live := r.pool.Gets - r.pool.Puts; live != 0 {
		t.Fatalf("%d packets leaked", live)
	}
}

func TestFlapIsDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) ([]sim.Time, int64) {
		eng := sim.New(1)
		pool := &netem.PacketPool{}
		rec := &recorder{eng: eng, pool: pool}
		link := netem.NewLink(eng, 8e6, 0.001, netem.NewDropTail(1000), rec)
		link.Pool = pool
		in := faults.New(eng, faults.Config{
			Seed: seed,
			Flap: &faults.Flap{MeanUp: 0.2, MeanDown: 0.05},
		})
		entry := in.Attach(link, link, pool)
		for i := 0; i < 200; i++ {
			i := i
			eng.At(sim.Time(i+1)*0.01, func() {
				p := pool.Get()
				p.Seq, p.Size = int64(i), 1000
				entry.Handle(p)
			})
		}
		eng.RunUntil(10)
		return append([]sim.Time(nil), rec.at...), link.Transitions
	}
	at1, tr1 := run(7)
	at2, tr2 := run(7)
	if tr1 != tr2 || len(at1) != len(at2) {
		t.Fatalf("same seed diverged: %d/%d transitions, %d/%d deliveries", tr1, tr2, len(at1), len(at2))
	}
	for i := range at1 {
		if at1[i] != at2[i] {
			t.Fatalf("same seed diverged at delivery %d: %v vs %v", i, at1[i], at2[i])
		}
	}
	if tr1 == 0 {
		t.Fatal("flap process never transitioned in 10 simulated seconds")
	}
	at3, _ := run(8)
	same := len(at1) == len(at3)
	if same {
		for i := range at1 {
			if at1[i] != at3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different fault seeds produced identical delivery times")
	}
}

func TestCorruptDiscardsAndReleases(t *testing.T) {
	r, in := newRig(t, faults.Config{CorruptProb: 1})
	r.sendEvery(10, 0.01)
	r.eng.Run()
	if len(r.rec.seqs) != 0 {
		t.Fatalf("delivered %d packets despite CorruptProb=1", len(r.rec.seqs))
	}
	if in.Stats.Corrupted != 10 {
		t.Fatalf("Corrupted = %d, want 10", in.Stats.Corrupted)
	}
	if live := r.pool.Gets - r.pool.Puts; live != 0 {
		t.Fatalf("%d corrupted packets leaked (injector must release)", live)
	}
	if r.link.Stats.Arrivals != 0 {
		t.Fatal("corrupted packets reached the link; they must die at the injector")
	}
}

func TestDupDeliversTwice(t *testing.T) {
	r, in := newRig(t, faults.Config{DupProb: 1})
	r.sendEvery(5, 0.01)
	r.eng.Run()
	if len(r.rec.seqs) != 10 {
		t.Fatalf("delivered %d packets, want 10 (5 originals + 5 copies)", len(r.rec.seqs))
	}
	for i := 0; i < 5; i++ {
		if r.rec.seqs[2*i] != int64(i) || r.rec.seqs[2*i+1] != int64(i) {
			t.Fatalf("deliveries %v: each copy must queue immediately behind its original", r.rec.seqs)
		}
	}
	if in.Stats.Duplicated != 5 {
		t.Fatalf("Duplicated = %d, want 5", in.Stats.Duplicated)
	}
	if live := r.pool.Gets - r.pool.Puts; live != 0 {
		t.Fatalf("%d packets leaked", live)
	}
}

func TestDupDeepCopiesFeedback(t *testing.T) {
	eng := sim.New(1)
	pool := &netem.PacketPool{}
	var got []*netem.Packet
	dst := netem.HandlerFunc(func(p *netem.Packet) { got = append(got, p) })
	link := netem.NewLink(eng, 8e6, 0.001, netem.NewDropTail(10), dst)
	link.Pool = pool
	in := faults.New(eng, faults.Config{DupProb: 1})
	entry := in.Attach(link, link, pool)
	p := pool.Get()
	p.Size = 1000
	p.FB = &netem.TFRCFeedback{RecvRate: 42}
	entry.Handle(p)
	eng.Run()
	if len(got) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(got))
	}
	if got[0].FB == got[1].FB {
		t.Fatal("duplicate aliases the original's feedback block")
	}
	if got[1].FB.RecvRate != 42 {
		t.Fatal("duplicate's feedback was not copied")
	}
}

func TestReorderHoldsWithinBound(t *testing.T) {
	r, in := newRig(t, faults.Config{Seed: 3, ReorderProb: 0.5, ReorderDelay: 0.05})
	r.sendEvery(100, 0.01)
	r.eng.Run()
	if len(r.rec.seqs) != 100 {
		t.Fatalf("delivered %d packets, want 100 (reordering must not lose)", len(r.rec.seqs))
	}
	if in.Stats.Reordered == 0 || in.Stats.Reordered == 100 {
		t.Fatalf("Reordered = %d; prob 0.5 over 100 packets should hold some, not all", in.Stats.Reordered)
	}
	inverted := 0
	for i := 1; i < len(r.rec.seqs); i++ {
		if r.rec.seqs[i] < r.rec.seqs[i-1] {
			inverted++
		}
	}
	if inverted == 0 {
		t.Fatal("no reordering observed despite held-back packets")
	}
	// Bounded: a held packet is delayed at most ReorderDelay beyond its
	// normal path (1 ms tx + 1 ms prop) plus the brief queueing a burst
	// of simultaneous releases can cause.
	for i, at := range r.rec.at {
		sent := sim.Time(r.rec.seqs[i]+1) * 0.01
		if lag := at - sent; lag > 0.06 {
			t.Fatalf("packet %d lagged %vs, beyond the reorder bound", r.rec.seqs[i], lag)
		}
	}
	if live := r.pool.Gets - r.pool.Puts; live != 0 {
		t.Fatalf("%d packets leaked", live)
	}
}

// The full probabilistic mix must be reproducible: two rigs with the
// same seed produce identical delivery sequences and identical stats.
func TestMixedFaultsDeterministic(t *testing.T) {
	run := func() ([]int64, []sim.Time, faults.Stats) {
		r, in := newRig(t, faults.Config{
			Seed:        11,
			CorruptProb: 0.05, DupProb: 0.05,
			ReorderProb: 0.1, ReorderDelay: 0.03,
			Windows: []faults.Window{{At: 0.3, Dur: 0.2}},
		})
		r.sendEvery(300, 0.005)
		r.eng.Run()
		return r.rec.seqs, r.rec.at, in.Stats
	}
	s1, a1, st1 := run()
	s2, a2, st2 := run()
	if st1 != st2 {
		t.Fatalf("stats diverged: %+v vs %+v", st1, st2)
	}
	if len(s1) != len(s2) {
		t.Fatalf("delivery counts diverged: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] || a1[i] != a2[i] {
			t.Fatalf("runs diverged at delivery %d", i)
		}
	}
	if st1.Corrupted == 0 || st1.Duplicated == 0 || st1.Reordered == 0 {
		t.Fatalf("mix exercised nothing: %+v", st1)
	}
}

func TestAttachTwicePanics(t *testing.T) {
	eng := sim.New(1)
	pool := &netem.PacketPool{}
	link := netem.NewLink(eng, 8e6, 0.001, netem.NewDropTail(10), netem.Sink{Pool: pool})
	in := faults.New(eng, faults.Config{CorruptProb: 0.5})
	in.Attach(link, link, pool)
	defer func() {
		if recover() == nil {
			t.Fatal("second Attach did not panic")
		}
	}()
	in.Attach(link, link, pool)
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	for _, cfg := range []faults.Config{
		{Windows: []faults.Window{{At: -1, Dur: 1}}},
		{Windows: []faults.Window{{At: 0, Dur: 0}}},
		{Flap: &faults.Flap{MeanUp: 0, MeanDown: 1}},
		{CorruptProb: 1.5},
		{DupProb: -0.1},
		{ReorderProb: 0.5}, // missing delay
	} {
		cfg := cfg
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted invalid config %+v", cfg)
				}
			}()
			faults.New(sim.New(1), cfg)
		}()
	}
}

// stamps is a sim.ProbeHook that records the time of every event.
type stamps []sim.Time

func (s *stamps) OnEvent(_, at sim.Time, _ uint64) sim.Time {
	*s = append(*s, at)
	return at
}

// flapTransitions runs a flap-only injector on an idle link, where every
// event is a transition, and returns the first n transition times.
func flapTransitions(seed int64, f faults.Flap, n int) []sim.Time {
	eng := sim.New(1)
	pool := &netem.PacketPool{}
	link := netem.NewLink(eng, 8e6, 0.001, netem.NewDropTail(10), &recorder{eng: eng, pool: pool})
	faults.New(eng, faults.Config{Seed: seed, Flap: &f}).Attach(link, link, pool)
	var at stamps
	eng.SetProbe(&at)
	for len(at) < n {
		eng.RunUntil(eng.Now() + 1000*(f.MeanUp+f.MeanDown))
	}
	return at[:n]
}

// TestFlapHoldingTimesPinned pins a flap schedule to the bit: the first
// 16 transition times for seed 7, so the first 16 holding times. Each
// draw is built from integer uniforms, comparisons and one correctly
// rounded sum, so the schedule is the same on every CPU (make nofma
// reruns this without FMA). The sample means of 10^5 up and 10^5 down
// holding times are within 2% of MeanUp and MeanDown.
func TestFlapHoldingTimesPinned(t *testing.T) {
	f := faults.Flap{MeanUp: 0.2, MeanDown: 0.05}
	want := []sim.Time{
		0.3823124348743635, 0.45525366354587254, 0.48446977345633585, 0.5192542271945817,
		0.7810997371665923, 0.7811919733027365, 1.2507516716252631, 1.4837058518987842,
		1.5251763412949635, 1.5935638933989462, 1.713522152412943, 1.7734677547176336,
		1.7760344553237573, 1.7948418514366462, 1.8204158666933081, 1.8994344324624184,
	}
	got := flapTransitions(7, f, len(want))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transition %d at %v, pinned %v: the flap schedule moved\n%#v", i, got[i], want[i], got)
		}
	}

	const draws = 100000
	times := flapTransitions(7, f, 2*draws)
	var up, down, prev sim.Time
	for i, at := range times {
		if i%2 == 0 {
			up += at - prev
		} else {
			down += at - prev
		}
		prev = at
	}
	for _, c := range []struct {
		name      string
		sum, mean sim.Time
	}{{"up", up, f.MeanUp}, {"down", down, f.MeanDown}} {
		if got := c.sum / draws; math.Abs(got/c.mean-1) > 0.02 {
			t.Errorf("mean %s time %v over %d draws, configured %v", c.name, got, draws, c.mean)
		}
	}
}
