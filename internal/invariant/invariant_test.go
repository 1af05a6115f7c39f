package invariant_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"slowcc/internal/invariant"
	"slowcc/internal/netem"
	"slowcc/internal/sim"
)

// drain is a packet sink.
type drain struct{}

func (drain) Handle(*netem.Packet) {}

// brokenQueue is a FIFO with two deliberate accounting defects,
// selectable per instance:
//
//   - keepDropped: every third packet is reported dropped but secretly
//     kept, so the link double-counts it as both a drop and a queued
//     packet (Drops + Len overshoots Arrivals).
//   - loseAccepted: every third packet is reported accepted but
//     silently discarded, so an arrival vanishes from the accounting
//     (Drops + Departures + Len undershoots Arrivals).
type brokenQueue struct {
	keepDropped  bool
	loseAccepted bool

	pkts  []*netem.Packet
	seen  int
	bytes int
}

func (q *brokenQueue) Enqueue(p *netem.Packet, _ sim.Time) bool {
	q.seen++
	if q.seen%3 == 0 {
		if q.keepDropped {
			q.pkts = append(q.pkts, p)
			q.bytes += p.Size
			return false
		}
		if q.loseAccepted {
			return true
		}
	}
	q.pkts = append(q.pkts, p)
	q.bytes += p.Size
	return true
}

func (q *brokenQueue) Dequeue(_ sim.Time) *netem.Packet {
	if len(q.pkts) == 0 {
		return nil
	}
	p := q.pkts[0]
	q.pkts = q.pkts[1:]
	q.bytes -= p.Size
	return p
}

func (q *brokenQueue) Len() int   { return len(q.pkts) }
func (q *brokenQueue) Bytes() int { return q.bytes }

// pump offers n packets to l, one per millisecond.
func pump(eng *sim.Engine, l *netem.Link, n int) {
	for i := 0; i < n; i++ {
		i := i
		eng.At(float64(i)*0.001, func() {
			l.Send(&netem.Packet{Flow: 1, Kind: netem.Data, Seq: int64(i), Size: 1000})
		})
	}
}

func firstKind(vs []invariant.Violation, kind string) *invariant.Violation {
	for i := range vs {
		if vs[i].Kind == kind {
			return &vs[i]
		}
	}
	return nil
}

func TestCleanLinkHasNoViolations(t *testing.T) {
	eng := sim.New(1)
	a := invariant.New(eng)
	l := netem.NewLink(eng, 1e6, 0.01, netem.NewDropTail(5), drain{})
	a.WatchLink("clean", l)
	pump(eng, l, 200) // 1000-byte packets at 1ms spacing over 1 Mbps: drops happen
	eng.Run()
	if err := a.Err(); err != nil {
		t.Fatalf("clean DropTail link breached invariants: %v", err)
	}
	if l.Stats.Drops == 0 {
		t.Fatal("scenario must exercise the drop path")
	}
}

func TestQueueDoubleCountingDropsTripsConservation(t *testing.T) {
	eng := sim.New(1)
	a := invariant.New(eng)
	l := netem.NewLink(eng, 1e9, 0.001, &brokenQueue{keepDropped: true}, drain{})
	a.WatchLink("double-count", l)
	pump(eng, l, 10)
	eng.Run()
	v := firstKind(a.Violations(), "conservation")
	if v == nil {
		t.Fatalf("drop-and-keep queue not caught; violations: %v", a.Violations())
	}
	if !strings.Contains(v.Detail, "off by") {
		t.Fatalf("violation lacks the imbalance: %v", v)
	}
}

func TestQueueLosingAcceptedPacketsTripsConservation(t *testing.T) {
	eng := sim.New(1)
	a := invariant.New(eng)
	l := netem.NewLink(eng, 1e9, 0.001, &brokenQueue{loseAccepted: true}, drain{})
	a.WatchLink("black-hole", l)
	pump(eng, l, 10)
	eng.Run()
	if firstKind(a.Violations(), "conservation") == nil {
		t.Fatalf("accept-and-lose queue not caught; violations: %v", a.Violations())
	}
}

// TestMisaccountingLinkTripsConservation corrupts a healthy link's
// departure counter mid-run — the moral equivalent of a link
// implementation that double-counts a transmission — and requires the
// next audit point to flag it.
func TestMisaccountingLinkTripsConservation(t *testing.T) {
	eng := sim.New(1)
	a := invariant.New(eng)
	l := netem.NewLink(eng, 1e6, 0.01, netem.NewDropTail(50), drain{})
	a.WatchLink("corrupted", l)
	pump(eng, l, 5)
	eng.At(0.5, func() { l.Stats.Departures++ })
	pump2 := func() { l.Send(&netem.Packet{Flow: 1, Kind: netem.Data, Size: 1000}) }
	eng.At(0.6, pump2)
	eng.Run()
	if firstKind(a.Violations(), "conservation") == nil {
		t.Fatalf("inflated departure counter not caught; violations: %v", a.Violations())
	}
}

// TestREDSplitCorruptionTrips corrupts a RED queue's early-drop counter
// and requires the early+forced == drops decomposition check to fire.
func TestREDSplitCorruptionTrips(t *testing.T) {
	eng := sim.New(1)
	a := invariant.New(eng)
	r := netem.NewRED(2, 6, 10, 0.0008, rand.New(rand.NewSource(1)))
	l := netem.NewLink(eng, 1e6, 0.01, r, drain{})
	a.WatchLink("red", l)
	pump(eng, l, 5)
	eng.At(0.5, func() { r.EarlyDrops++ })
	eng.At(0.6, func() { l.Send(&netem.Packet{Flow: 1, Kind: netem.Data, Size: 1000}) })
	eng.Run()
	if firstKind(a.Violations(), "red-split") == nil {
		t.Fatalf("corrupted drop split not caught; violations: %v", a.Violations())
	}
}

// TestClockAndFIFOHooks drives the sim.AuditHook surface directly with
// out-of-order observations, since a healthy engine can no longer
// produce them.
func TestClockAndFIFOHooks(t *testing.T) {
	eng := sim.New(1)
	a := invariant.New(eng)

	a.OnEvent(5, 4, 1) // clock moved backward
	if firstKind(a.Violations(), "clock") == nil {
		t.Fatal("backward clock not caught")
	}

	b := invariant.New(sim.New(1))
	b.OnEvent(0, 1, 5)
	b.OnEvent(1, 1, 3) // same instant, sequence went backward
	if firstKind(b.Violations(), "fifo") == nil {
		t.Fatalf("FIFO inversion not caught; violations: %v", b.Violations())
	}

	c := invariant.New(sim.New(1))
	c.OnSchedule(5, 4)
	c.OnSchedule(0, math.NaN())
	if len(c.Violations()) != 2 {
		t.Fatalf("schedule-time checks recorded %d violations, want 2", len(c.Violations()))
	}
}

func TestFlowAndBoundChecks(t *testing.T) {
	eng := sim.New(1)
	a := invariant.New(eng)
	sent, recv := int64(100), int64(50)
	a.WatchFlow("ok", func() int64 { return sent }, func() int64 { return recv })
	bad := 0.0
	a.WatchValue("cwnd", func() float64 { return bad }, 0, 1e7)
	// Tick some events so the periodic check runs.
	for i := 1; i <= 5; i++ {
		eng.At(float64(i), func() {})
	}
	eng.RunUntil(2)
	if err := a.Err(); err != nil {
		t.Fatalf("healthy flow flagged: %v", err)
	}
	recv = 200 // more received than sent
	bad = math.NaN()
	eng.RunUntil(5)
	if firstKind(a.Violations(), "flow") == nil {
		t.Fatalf("recv > sent not caught; violations: %v", a.Violations())
	}
	if firstKind(a.Violations(), "bound") == nil {
		t.Fatalf("NaN value not caught; violations: %v", a.Violations())
	}
}

// TestViolationCapAndTotal checks the 100-violation cap bounds memory
// while Total keeps counting.
func TestViolationCapAndTotal(t *testing.T) {
	eng := sim.New(1)
	a := invariant.New(eng)
	for i := 0; i < 110; i++ {
		a.OnEvent(5, 4, uint64(i))
	}
	if len(a.Violations()) != 100 {
		t.Fatalf("recorded %d violations, want cap of 100", len(a.Violations()))
	}
	if a.Total != 110 {
		t.Fatalf("Total = %d, want 110", a.Total)
	}
	if a.Err() == nil {
		t.Fatal("Err() = nil with violations present")
	}
}
