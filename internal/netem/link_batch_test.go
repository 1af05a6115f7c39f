// Batched-delivery semantics under dynamic link state. The transmitter
// chains back-to-back completions through one persistent re-armed timer
// (Link.txDone), so a busy period is a single timer chain rather than a
// timer per packet — these tests pin down that the chain still observes
// every per-packet capture point and still honors SetDown/SetUp
// transitions that land in the middle of it.
package netem

import (
	"testing"

	"slowcc/internal/sim"
)

// conservation asserts Arrivals == Drops + Departures + queued + in-flight
// at every settled point, the link conservation law from DESIGN.md.
type conservation struct {
	t      *testing.T
	points int
}

func (c *conservation) tap(l *Link, op TapOp, _ *Packet, now sim.Time) {
	if op != TapSettled {
		return
	}
	c.points++
	inFlight := int64(0)
	if l.Busy() {
		inFlight = 1
	}
	if got := l.Stats.Drops + l.Stats.Departures + int64(l.Q.Len()) + inFlight; got != l.Stats.Arrivals {
		c.t.Fatalf("conservation violated at t=%v: drops %d + departures %d + queued %d + inflight %d != arrivals %d",
			now, l.Stats.Drops, l.Stats.Departures, l.Q.Len(), inFlight, l.Stats.Arrivals)
	}
}

// journeyLog records (op, seq) pairs so tests can assert the full
// per-packet lifecycle survived batching.
type journeyLog struct {
	ops  []TapOp
	seqs []int64
}

func (j *journeyLog) tap(_ *Link, op TapOp, p *Packet, _ sim.Time) {
	if op == TapSettled {
		return
	}
	j.ops = append(j.ops, op)
	j.seqs = append(j.seqs, p.Seq)
}

// perPacketOps returns the op sequence observed for sequence number seq.
func (j *journeyLog) perPacketOps(seq int64) []TapOp {
	var out []TapOp
	for i, s := range j.seqs {
		if s == seq {
			out = append(out, j.ops[i])
		}
	}
	return out
}

func wantJourney(t *testing.T, j *journeyLog, seq int64, want ...TapOp) {
	t.Helper()
	got := j.perPacketOps(seq)
	if len(got) != len(want) {
		t.Fatalf("packet %d saw %d journey ops %v, want %v", seq, len(got), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("packet %d journey op %d is %v, want %v", seq, i, got[i], want[i])
		}
	}
}

// SetDown(DownQueue) in the middle of a 5-packet busy period: the
// in-flight packet finishes and propagates, the chain parks, the backlog
// survives the outage, and SetUp restarts the chain in order with exact
// spacing — with conservation audited at every transition and every
// packet seeing its full journey.
func TestBatchedSetDownQueueMidBusyPeriod(t *testing.T) {
	eng := sim.New(1)
	dst := &collector{eng: eng}
	// 8 Mbps, 1 ms propagation: a 1000-byte packet serializes in 1 ms.
	l := NewLink(eng, 8e6, 0.001, NewDropTail(100), dst)
	aud := &conservation{t: t}
	l.AddTap(aud.tap)
	jl := &journeyLog{}
	l.AddTap(jl.tap)

	for i := int64(0); i < 5; i++ {
		l.Send(mkPkt(i, 1000))
	}
	// Packet 1 is on the wire during [1 ms, 2 ms]; the outage lands at
	// its midpoint.
	eng.At(0.0015, func() { l.SetDown(DownQueue) })
	eng.At(0.0025, func() {
		if l.Busy() {
			t.Fatal("link still busy after the in-flight packet's tx end during an outage")
		}
		if got := l.Q.Len(); got != 3 {
			t.Fatalf("%d packets queued during outage, want 3", got)
		}
		if got := l.Stats.Departures; got != 2 {
			t.Fatalf("%d departures before the outage parked the chain, want 2", got)
		}
	})
	eng.At(0.010, l.SetUp)
	eng.Run()

	if len(dst.pkts) != 5 {
		t.Fatalf("delivered %d packets, want 5", len(dst.pkts))
	}
	// Pre-outage deliveries at 2 and 3 ms; post-SetUp chain restarts at
	// 10 ms: tx ends 11/12/13 ms, deliveries 12/13/14 ms.
	want := []sim.Time{0.002, 0.003, 0.012, 0.013, 0.014}
	for i, at := range dst.at {
		if at < want[i]-1e-12 || at > want[i]+1e-12 {
			t.Fatalf("delivery %d at %v, want %v", i, at, want[i])
		}
		if dst.pkts[i].Seq != int64(i) {
			t.Fatalf("packet %d arrived in slot %d; mid-batch outage must preserve order", dst.pkts[i].Seq, i)
		}
	}
	if l.Transitions != 2 {
		t.Fatalf("Transitions %d, want 2", l.Transitions)
	}
	for seq := int64(0); seq < 5; seq++ {
		wantJourney(t, jl, seq, TapEnqueue, TapTxStart, TapTxEnd, TapDeliver)
	}
	if aud.points == 0 {
		t.Fatal("auditor never ran")
	}
}

// SetDown(DownDrop) mid-busy-period: the in-flight packet completes, the
// already-queued backlog is retained (DownDrop refuses arrivals, not
// residents), arrivals during the outage are refused at the entry and
// released to the pool, and SetUp resumes the retained backlog in order.
func TestBatchedSetDownDropMidBusyPeriod(t *testing.T) {
	eng := sim.New(1)
	dst := &collector{eng: eng}
	l := NewLink(eng, 8e6, 0.001, NewDropTail(100), dst)
	aud := &conservation{t: t}
	l.AddTap(aud.tap)
	jl := &journeyLog{}
	l.AddTap(jl.tap)
	pool := &PacketPool{}
	l.Pool = pool
	var refused []int64
	l.AddTap(func(_ *Link, op TapOp, p *Packet, _ sim.Time) {
		if op == TapDrop {
			refused = append(refused, p.Seq)
		}
	})

	for i := int64(0); i < 3; i++ {
		l.Send(mkPkt(i, 1000))
	}
	eng.At(0.0015, func() { l.SetDown(DownDrop) })
	// Arrivals inside the outage window are refused at the link entry.
	eng.At(0.005, func() { l.Send(mkPkt(100, 1000)) })
	eng.At(0.006, func() { l.Send(mkPkt(101, 1000)) })
	eng.At(0.010, l.SetUp)
	eng.Run()

	if len(dst.pkts) != 3 {
		t.Fatalf("delivered %d packets, want 3 (two arrivals refused mid-outage)", len(dst.pkts))
	}
	want := []sim.Time{0.002, 0.003, 0.012}
	for i, at := range dst.at {
		if at < want[i]-1e-12 || at > want[i]+1e-12 {
			t.Fatalf("delivery %d at %v, want %v", i, at, want[i])
		}
	}
	if l.Stats.Drops != 2 || l.Stats.DownDrops != 2 {
		t.Fatalf("Drops %d / DownDrops %d, want 2/2", l.Stats.Drops, l.Stats.DownDrops)
	}
	if len(refused) != 2 || refused[0] != 100 || refused[1] != 101 {
		t.Fatalf("taps saw refusals %v, want [100 101]", refused)
	}
	if got := pool.Puts; got != 2 {
		t.Fatalf("pool received %d refused packets, want 2", got)
	}
	wantJourney(t, jl, 100, TapDrop)
	wantJourney(t, jl, 101, TapDrop)
	for seq := int64(0); seq < 3; seq++ {
		wantJourney(t, jl, seq, TapEnqueue, TapTxStart, TapTxEnd, TapDeliver)
	}
}

// A down/up flap contained entirely within one packet's serialization
// must be invisible to the timer chain: the in-flight transmission was
// never interrupted, the link is back up by the time its completion
// fires, and the batch proceeds with unbroken back-to-back spacing.
func TestBatchedFlapWithinOneTransmission(t *testing.T) {
	eng := sim.New(1)
	dst := &collector{eng: eng}
	l := NewLink(eng, 8e6, 0.001, NewDropTail(100), dst)

	for i := int64(0); i < 4; i++ {
		l.Send(mkPkt(i, 1000))
	}
	// Packet 1 serializes during [1 ms, 2 ms]; the flap fits inside.
	eng.At(0.0012, func() { l.SetDown(DownQueue) })
	eng.At(0.0014, l.SetUp)
	eng.Run()

	if len(dst.pkts) != 4 {
		t.Fatalf("delivered %d packets, want 4", len(dst.pkts))
	}
	want := []sim.Time{0.002, 0.003, 0.004, 0.005}
	for i, at := range dst.at {
		if at < want[i]-1e-12 || at > want[i]+1e-12 {
			t.Fatalf("delivery %d at %v, want %v (flap inside one tx must not perturb the chain)", i, at, want[i])
		}
	}
	if l.Transitions != 2 {
		t.Fatalf("Transitions %d, want 2", l.Transitions)
	}
}

// A flap that spans a completion parks the chain exactly once: the
// packet whose transmission straddled SetDown completes, the next
// dequeue sees the link down and stops, and SetUp restarts mid-batch.
func TestBatchedFlapSpanningCompletion(t *testing.T) {
	eng := sim.New(1)
	dst := &collector{eng: eng}
	l := NewLink(eng, 8e6, 0.001, NewDropTail(100), dst)

	for i := int64(0); i < 4; i++ {
		l.Send(mkPkt(i, 1000))
	}
	eng.At(0.0012, func() { l.SetDown(DownQueue) })
	eng.At(0.0025, l.SetUp)
	eng.Run()

	if len(dst.pkts) != 4 {
		t.Fatalf("delivered %d packets, want 4", len(dst.pkts))
	}
	// p0: tx end 1 ms → 2 ms. p1: tx end 2 ms → 3 ms. Chain parks at
	// 2 ms (down); SetUp at 2.5 ms: p2 tx [2.5, 3.5] → 4.5 ms, p3 → 5.5.
	want := []sim.Time{0.002, 0.003, 0.0045, 0.0055}
	for i, at := range dst.at {
		if at < want[i]-1e-12 || at > want[i]+1e-12 {
			t.Fatalf("delivery %d at %v, want %v", i, at, want[i])
		}
	}
}
