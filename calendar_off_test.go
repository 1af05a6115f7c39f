// Differential guarantee of the event-queue swap: the calendar queue
// and the heap reference must produce identical runs — not just the
// same aggregates, but the same event stream, packet for packet. The seed-1 macro run holds it as the "heap
// queue" row of TestWiredButOffLayersKeepPinnedStream; here a faulted
// 3-hop parking lot does, where outages, corruption, duplication, and
// reordering all land inside batched busy periods.
package slowcc_test

import (
	"testing"

	"slowcc"
	"slowcc/internal/faults"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
	"slowcc/internal/trace"
)

// faultedChainRun builds a 3-hop parking-lot chain with a fault injector
// on every hop — an outage window plus corruption, duplication, and
// reordering probabilities high enough to land inside batched busy
// periods — runs two TCP flows for 15 s, and returns everything a
// differential comparison needs.
func faultedChainRun(t *testing.T, kind sim.QueueKind) (*sim.Engine, *topology.Net, []*faults.Injector, []trace.Event) {
	t.Helper()
	eng := sim.NewWithQueue(1, kind)
	hops := make([]topology.Hop, 3)
	var injs []*faults.Injector
	for i := range hops {
		inj := faults.New(eng, faults.Config{
			Seed:         int64(100 + i),
			Windows:      []faults.Window{{At: 4 + float64(i), Dur: 0.5}},
			CorruptProb:  0.01,
			DupProb:      0.01,
			ReorderProb:  0.02,
			ReorderDelay: 0.003,
		})
		hops[i] = topology.Hop{Rate: 10e6, Fault: inj}
		injs = append(injs, inj)
	}
	n := topology.NewNet(eng, topology.NetConfig{Hops: hops, Seed: 1})
	rec := &trace.Recorder{}
	n.Fwd[len(n.Fwd)-1].AddTap(rec.LinkTap())
	f1 := slowcc.TCP(0.5).Make(eng, n, 1)
	f2 := slowcc.TCP(0.5).Make(eng, n, 2)
	eng.At(0, f1.Sender.Start)
	eng.At(0, f2.Sender.Start)
	eng.RunUntil(15)
	return eng, n, injs, rec.Events()
}

func TestCalendarVsHeapFaultedParkingLot(t *testing.T) {
	calEng, calNet, calInjs, calEv := faultedChainRun(t, sim.CalendarQueue)
	heapEng, heapNet, heapInjs, heapEv := faultedChainRun(t, sim.HeapQueue)

	if calEng.Steps() != heapEng.Steps() {
		t.Fatalf("step counts diverge: calendar %d, heap %d", calEng.Steps(), heapEng.Steps())
	}
	for i := range calInjs {
		if calInjs[i].Stats != heapInjs[i].Stats {
			t.Fatalf("hop %d fault stats diverge: calendar %+v, heap %+v", i, calInjs[i].Stats, heapInjs[i].Stats)
		}
		if calInjs[i].Stats.Corrupted == 0 && calInjs[i].Stats.Reordered == 0 {
			t.Fatalf("hop %d injector inflicted nothing; the differential is not exercising faults", i)
		}
	}
	for i := range calNet.Fwd {
		if calNet.Fwd[i].Stats != heapNet.Fwd[i].Stats {
			t.Fatalf("hop %d forward link stats diverge: calendar %+v, heap %+v", i, calNet.Fwd[i].Stats, heapNet.Fwd[i].Stats)
		}
		if calNet.Rev[i].Stats != heapNet.Rev[i].Stats {
			t.Fatalf("hop %d reverse link stats diverge: calendar %+v, heap %+v", i, calNet.Rev[i].Stats, heapNet.Rev[i].Stats)
		}
	}
	if len(calEv) != len(heapEv) {
		t.Fatalf("trace lengths differ: calendar %d, heap %d", len(calEv), len(heapEv))
	}
	for i := range calEv {
		if calEv[i] != heapEv[i] {
			t.Fatalf("trace event %d differs: calendar %+v, heap %+v", i, calEv[i], heapEv[i])
		}
	}
	// The faulted run must actually have taken links down: three hops,
	// one window each, two transitions per window.
	for i := range calNet.Fwd {
		if calNet.Fwd[i].Transitions != 2 {
			t.Fatalf("hop %d saw %d transitions, want 2", i, calNet.Fwd[i].Transitions)
		}
	}
}
