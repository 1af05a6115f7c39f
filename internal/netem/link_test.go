package netem

import (
	"testing"

	"slowcc/internal/sim"
)

// collector gathers delivered packets with their delivery times.
type collector struct {
	eng  *sim.Engine
	pkts []*Packet
	at   []sim.Time
}

func (c *collector) Handle(p *Packet) {
	c.pkts = append(c.pkts, p)
	c.at = append(c.at, c.eng.Now())
}

func TestLinkSerializationAndDelay(t *testing.T) {
	eng := sim.New(1)
	dst := &collector{eng: eng}
	// 8 Mbps, 10 ms: a 1000-byte packet takes 1 ms to serialize.
	l := NewLink(eng, 8e6, 0.010, NewDropTail(100), dst)
	l.Send(mkPkt(0, 1000))
	eng.Run()
	if len(dst.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(dst.pkts))
	}
	want := 0.001 + 0.010
	if got := dst.at[0]; got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("delivery at %v, want %v", got, want)
	}
}

func TestLinkBackToBackSpacing(t *testing.T) {
	eng := sim.New(1)
	dst := &collector{eng: eng}
	l := NewLink(eng, 8e6, 0.010, NewDropTail(100), dst)
	for i := int64(0); i < 5; i++ {
		l.Send(mkPkt(i, 1000))
	}
	eng.Run()
	if len(dst.pkts) != 5 {
		t.Fatalf("delivered %d packets, want 5", len(dst.pkts))
	}
	for i := 1; i < 5; i++ {
		gap := dst.at[i] - dst.at[i-1]
		if gap < 0.001-1e-12 || gap > 0.001+1e-12 {
			t.Fatalf("inter-delivery gap %v, want 1ms (back-to-back at line rate)", gap)
		}
	}
	// Order preserved.
	for i, p := range dst.pkts {
		if p.Seq != int64(i) {
			t.Fatalf("packet %d arrived in slot %d", p.Seq, i)
		}
	}
}

func TestLinkIdleThenBusy(t *testing.T) {
	eng := sim.New(1)
	dst := &collector{eng: eng}
	l := NewLink(eng, 8e6, 0, NewDropTail(100), dst)
	eng.At(0, func() { l.Send(mkPkt(0, 1000)) })
	eng.At(5, func() { l.Send(mkPkt(1, 1000)) }) // long after the first drains
	eng.Run()
	if dst.at[1] < 5.001-1e-12 || dst.at[1] > 5.001+1e-12 {
		t.Fatalf("second delivery at %v, want 5.001 (transmitter restarts from idle)", dst.at[1])
	}
}

func TestLinkDropsCountAndTap(t *testing.T) {
	eng := sim.New(1)
	dst := &collector{eng: eng}
	l := NewLink(eng, 8e6, 0, NewDropTail(2), dst)
	var tapAccepted, tapDropped int
	l.AddTap(func(_ *Link, op TapOp, _ *Packet, _ sim.Time) {
		switch op {
		case TapEnqueue:
			tapAccepted++
		case TapDrop:
			tapDropped++
		}
	})
	// One in flight (dequeued immediately) + 2 queued; 4th and 5th drop.
	for i := int64(0); i < 5; i++ {
		l.Send(mkPkt(i, 1000))
	}
	eng.Run()
	if l.Stats.Drops != 2 {
		t.Fatalf("Drops = %d, want 2", l.Stats.Drops)
	}
	if l.Stats.Arrivals != 5 || l.Stats.Departures != 3 {
		t.Fatalf("Arrivals=%d Departures=%d, want 5/3", l.Stats.Arrivals, l.Stats.Departures)
	}
	if tapAccepted != 3 || tapDropped != 2 {
		t.Fatalf("tap saw %d/%d, want 3 accepted / 2 dropped", tapAccepted, tapDropped)
	}
}

func TestLinkChaining(t *testing.T) {
	eng := sim.New(1)
	dst := &collector{eng: eng}
	l2 := NewLink(eng, 8e6, 0.005, NewDropTail(10), dst)
	l1 := NewLink(eng, 8e6, 0.005, NewDropTail(10), l2)
	l1.Send(mkPkt(0, 1000))
	eng.Run()
	want := 2 * (0.001 + 0.005)
	if got := dst.at[0]; got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("two-hop delivery at %v, want %v", got, want)
	}
}

func TestCountPattern(t *testing.T) {
	p := &CountPattern{Intervals: []int{3, 5}}
	var drops []int
	for i := 1; i <= 20; i++ {
		if p.Drop(0) {
			drops = append(drops, i)
		}
	}
	// Survive 3 -> drop #4; survive 5 -> drop #10; survive 3 -> drop #14; survive 5 -> drop #20.
	want := []int{4, 10, 14, 20}
	if len(drops) != len(want) {
		t.Fatalf("drops at %v, want %v", drops, want)
	}
	for i := range want {
		if drops[i] != want[i] {
			t.Fatalf("drops at %v, want %v", drops, want)
		}
	}
}

func TestTimedPattern(t *testing.T) {
	p := &TimedPattern{Phases: []TimedPhase{{Duration: 1, EveryNth: 2}, {Duration: 1, EveryNth: 0}}}
	// Phase one: every 2nd packet dies.
	if p.Drop(0.1) {
		t.Fatal("first packet dropped; EveryNth=2 must pass one first")
	}
	if !p.Drop(0.2) {
		t.Fatal("second packet survived; EveryNth=2 must drop it")
	}
	// Phase two (t in [1,2)): nothing drops.
	for i := 0; i < 10; i++ {
		if p.Drop(1.5) {
			t.Fatal("drop during a lossless phase")
		}
	}
	// Wrap around to phase one again (t in [2,3)).
	p.Drop(2.1)
	if !p.Drop(2.2) {
		t.Fatal("pattern did not cycle back to the lossy phase")
	}
}

func TestTimedPatternSkipsMultiplePhases(t *testing.T) {
	p := &TimedPattern{Phases: []TimedPhase{{Duration: 1, EveryNth: 1}, {Duration: 1, EveryNth: 0}}}
	p.Drop(0) // start the clock
	// Jump 10.5 phases ahead: lands in phase 0 (even slot), which drops all.
	if !p.Drop(10.5) {
		t.Fatal("after skipping ahead, expected to land in the drop-all phase")
	}
	if p.Drop(11.5) {
		t.Fatal("t=11.5 is an odd slot: the lossless phase")
	}
}

// Regression for a hang a fuzzer found: a tiny phase duration made
// the phase-advance loop iterate once per elapsed phase (~10^8 calls
// for a 1e-9s phase), and at large clock magnitudes phaseEnd += d
// underflowed into an infinite loop. Drop must fast-forward whole
// cycles in O(1) and always make forward progress.
func TestTimedPatternFastForward(t *testing.T) {
	p := &TimedPattern{Phases: []TimedPhase{{Duration: 1e-9, EveryNth: 2}}}
	p.Drop(0.001)
	p.Drop(1e6)
	p.Drop(1e17) // beyond float addition resolution for 1e-9 steps

	// Phase alignment survives a multi-cycle skip: 1s dropping every
	// packet alternating with 1s dropping none.
	q := &TimedPattern{Phases: []TimedPhase{{Duration: 1, EveryNth: 1}, {Duration: 1, EveryNth: 0}}}
	if !q.Drop(0.5) {
		t.Fatal("t=0.5 is in the drop phase")
	}
	if !q.Drop(10.5) {
		t.Fatal("t=10.5 (whole cycles later) must land back in the drop phase")
	}
	if q.Drop(11.5) {
		t.Fatal("t=11.5 is in the quiet phase")
	}
}

func TestLossFilterPassesControlPackets(t *testing.T) {
	eng := sim.New(1)
	dst := &collector{eng: eng}
	f := &LossFilter{
		Pattern: &CountPattern{Intervals: []int{0}}, // drop every data packet
		Next:    dst,
		Now:     eng.Now,
	}
	f.Handle(&Packet{Kind: Ack})
	f.Handle(&Packet{Kind: Data})
	f.Handle(&Packet{Kind: Feedback})
	if len(dst.pkts) != 2 {
		t.Fatalf("delivered %d, want 2 (both control packets)", len(dst.pkts))
	}
	if f.Drops != 1 || f.Arrivals != 1 {
		t.Fatalf("Drops=%d Arrivals=%d, want 1/1", f.Drops, f.Arrivals)
	}
}

func TestLinkNoJitterKeepsOrder(t *testing.T) {
	eng := sim.New(1)
	dst := &collector{eng: eng}
	l := NewLink(eng, 80e6, 0.001, NewDropTail(1000), dst)
	for i := int64(0); i < 200; i++ {
		l.Send(mkPkt(i, 1000))
	}
	eng.Run()
	for i := 1; i < len(dst.pkts); i++ {
		if dst.pkts[i].Seq < dst.pkts[i-1].Seq {
			t.Fatal("jitterless link reordered packets")
		}
	}
}
