package netem

import (
	"strings"
	"testing"

	"slowcc/internal/sim"
)

// A non-positive rate would schedule the transmission completion at
// +Inf; the guard must fail loudly at the TxTime call, naming the fix.
func TestLinkTxTimeGuardsNonPositiveRate(t *testing.T) {
	for _, rate := range []float64{0, -1} {
		func() {
			defer func() {
				v := recover()
				if v == nil {
					t.Fatalf("TxTime with rate %v did not panic", rate)
				}
				msg, ok := v.(string)
				if !ok || !strings.Contains(msg, "SetDown") {
					t.Fatalf("panic %v does not point at SetDown", v)
				}
			}()
			eng := sim.New(1)
			l := NewLink(eng, rate, 0.001, NewDropTail(10), Sink{})
			l.Send(mkPkt(0, 1000))
			eng.Run()
		}()
	}
}

// DownQueue: arrivals during the outage wait in the queue; nothing is
// delivered while down; SetUp drains the backlog in order at line rate.
func TestLinkDownQueuePolicy(t *testing.T) {
	eng := sim.New(1)
	dst := &collector{eng: eng}
	l := NewLink(eng, 8e6, 0.001, NewDropTail(100), dst)

	eng.At(0, func() { l.SetDown(DownQueue) })
	for i := int64(0); i < 5; i++ {
		i := i
		eng.At(0.01+float64(i)*0.001, func() { l.Send(mkPkt(i, 1000)) })
	}
	eng.At(1, l.SetUp)
	eng.Run()

	if len(dst.pkts) != 5 {
		t.Fatalf("delivered %d packets, want all 5 after SetUp", len(dst.pkts))
	}
	for i, p := range dst.pkts {
		if p.Seq != int64(i) {
			t.Fatalf("packet %d arrived in slot %d; outage must preserve order", p.Seq, i)
		}
	}
	// First delivery: up at t=1, 1 ms serialization + 1 ms propagation.
	if got, want := dst.at[0], 1.002; got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("first post-outage delivery at %v, want %v", got, want)
	}
	if l.Stats.Drops != 0 || l.Stats.DownDrops != 0 {
		t.Fatalf("DownQueue dropped (Drops=%d DownDrops=%d); the queue had room", l.Stats.Drops, l.Stats.DownDrops)
	}
	if l.Transitions != 2 {
		t.Fatalf("Transitions = %d, want 2 (one down, one up)", l.Transitions)
	}
}

// DownQueue with a full queue sheds load through the queue's own drop
// discipline, exactly like congestion.
func TestLinkDownQueueOverflows(t *testing.T) {
	eng := sim.New(1)
	pool := &PacketPool{}
	l := NewLink(eng, 8e6, 0.001, NewDropTail(4), Sink{Pool: pool})
	l.Pool = pool
	l.SetDown(DownQueue)
	for i := int64(0); i < 10; i++ {
		p := pool.Get()
		p.Seq, p.Size = i, 1000
		l.Send(p)
	}
	if l.Stats.Drops != 6 {
		t.Fatalf("Drops = %d, want 6 (queue holds 4 of 10)", l.Stats.Drops)
	}
	if l.Stats.DownDrops != 0 {
		t.Fatal("queue-overflow drops must not count as DownDrops")
	}
	l.SetUp()
	eng.Run()
	if l.Stats.Departures != 4 {
		t.Fatalf("Departures = %d, want 4", l.Stats.Departures)
	}
	if live := pool.Gets - pool.Puts; live != 0 {
		t.Fatalf("%d packets leaked across the outage", live)
	}
}

// DownDrop: arrivals during the outage are refused at the link entry,
// counted separately, observed by taps as not accepted, and released
// back to the pool.
func TestLinkDownDropPolicy(t *testing.T) {
	eng := sim.New(1)
	pool := &PacketPool{}
	l := NewLink(eng, 8e6, 0.001, NewDropTail(100), Sink{Pool: pool})
	l.Pool = pool
	var tapDropped int
	l.AddTap(func(_ *Link, op TapOp, _ *Packet, _ sim.Time) {
		if op == TapDrop {
			tapDropped++
		}
	})
	l.SetDown(DownDrop)
	for i := int64(0); i < 3; i++ {
		p := pool.Get()
		p.Seq, p.Size = i, 1000
		if l.Send(p) {
			t.Fatal("down link under DownDrop accepted a packet")
		}
	}
	l.SetUp()
	p := pool.Get()
	p.Size = 1000
	if !l.Send(p) {
		t.Fatal("restored link refused a packet")
	}
	eng.Run()
	if l.Stats.DownDrops != 3 || l.Stats.Drops != 3 {
		t.Fatalf("DownDrops=%d Drops=%d, want 3/3", l.Stats.DownDrops, l.Stats.Drops)
	}
	if tapDropped != 3 {
		t.Fatalf("taps saw %d refusals, want 3", tapDropped)
	}
	if l.Stats.Departures != 1 {
		t.Fatalf("Departures = %d, want 1", l.Stats.Departures)
	}
	if live := pool.Gets - pool.Puts; live != 0 {
		t.Fatalf("%d packets leaked (down-drops must release)", live)
	}
}

// A packet already being serialized when the link goes down finishes
// and propagates — its bits were on the wire — but the next queued
// packet waits for SetUp.
func TestLinkDownInFlightCompletes(t *testing.T) {
	eng := sim.New(1)
	dst := &collector{eng: eng}
	l := NewLink(eng, 8e6, 0.010, NewDropTail(100), dst)
	l.Send(mkPkt(0, 1000)) // starts serializing now; finishes at t=1ms
	l.Send(mkPkt(1, 1000)) // queued behind it
	eng.At(0.0005, func() { l.SetDown(DownQueue) })
	eng.At(2, l.SetUp)
	eng.Run()
	if len(dst.pkts) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(dst.pkts))
	}
	if got, want := dst.at[0], 0.011; got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("in-flight packet delivered at %v, want %v (must complete)", got, want)
	}
	if got, want := dst.at[1], 2.011; got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("queued packet delivered at %v, want %v (must wait for SetUp)", got, want)
	}
}

// SetDown on a down link only updates the policy; SetUp on an up link
// is a no-op. Neither double-counts transitions.
func TestLinkDownTransitionsIdempotent(t *testing.T) {
	eng := sim.New(1)
	l := NewLink(eng, 8e6, 0.001, NewDropTail(10), Sink{})
	l.SetUp() // already up
	if l.Transitions != 0 {
		t.Fatalf("no-op SetUp counted a transition")
	}
	l.SetDown(DownQueue)
	l.SetDown(DownDrop) // policy change only
	if l.Transitions != 1 || !l.down {
		t.Fatalf("Transitions=%d Down=%v, want 1/true", l.Transitions, l.down)
	}
	l.SetUp()
	l.SetUp()
	if l.Transitions != 2 || l.down {
		t.Fatalf("Transitions=%d Down=%v, want 2/false", l.Transitions, l.down)
	}
}
