package netem

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"slowcc/internal/sim"
)

// raceDetector reports whether the test binary was built with -race.
func raceDetector() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// skipIfDropped skips a test whose released lists the race detector's
// sync.Pool dropped, as it drops a random quarter of what it is given,
// and fails it outside the race detector, where nothing can drop them on
// one P with the collector off.
func skipIfDropped(t *testing.T, dropped bool) {
	t.Helper()
	if !dropped {
		return
	}
	if raceDetector() {
		t.Skip("the race detector's sync.Pool dropped the released lists")
	}
	t.Fatal("nothing released reached the next user")
}

// A pool built after a release starts with the released pool's packets,
// and a Get they serve counts as an allocation: its counters are those an
// unstocked pool keeps for the same traffic.
func TestReleasedPoolCountsOnlyItsOwnReuses(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	traffic := func(pp *PacketPool) []*Packet {
		var got []*Packet
		for round := 0; round < 2; round++ {
			ps := make([]*Packet, 10)
			for i := range ps {
				ps[i] = pp.Get()
			}
			for _, p := range ps {
				pp.Put(p)
			}
			got = append(got, ps...)
		}
		return got
	}
	a := NewPacketPool()
	released := traffic(a)[10:]
	a.Release()

	b := NewPacketPool()
	skipIfDropped(t, len(b.free) == 0)
	got := traffic(b)
	for _, p := range got[:10] {
		if !slices.Contains(released, p) {
			t.Fatal("the stocked pool allocated a packet the released one had parked")
		}
	}
	fresh := &PacketPool{}
	traffic(fresh)
	if b.Gets != fresh.Gets || b.Puts != fresh.Puts || b.Reuses != fresh.Reuses {
		t.Fatalf("stocked pool counted %d gets, %d puts, %d reuses; an unstocked one %d, %d, %d",
			b.Gets, b.Puts, b.Reuses, fresh.Gets, fresh.Puts, fresh.Reuses)
	}
}

// A released link leaves its queue empty and its buffer, cleared, to the
// next queue that grows: the smallest parked buffer at least the size it
// needs.
func TestReleasedQueueBufferServesTheNextGrowth(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	eng := sim.New(1)
	q := NewDropTail(1000)
	l := NewLink(eng, 1e6, 0, q, Sink{})
	for i := 0; i < 300; i++ { // fills a 512-slot buffer
		q.Enqueue(&Packet{Size: 1}, 0)
	}
	buf := q.q.buf
	l.Release()
	if q.Len() != 0 || q.Bytes() != 0 || q.q.buf != nil {
		t.Fatalf("released queue holds %d packets, %d bytes, a %d-slot buffer", q.Len(), q.Bytes(), len(q.q.buf))
	}

	next := NewDropTail(1000)
	for i := 0; i < 20; i++ { // grows past the first 16 slots
		next.Enqueue(&Packet{Size: 1}, 0)
	}
	skipIfDropped(t, len(next.q.buf) != len(buf))
	if &next.q.buf[0] != &buf[0] {
		t.Fatal("the growing queue got a 512-slot buffer, but not the parked one")
	}
	for i, p := range next.q.buf[next.q.n:] {
		if p != nil {
			t.Fatalf("slot %d of the inherited buffer still holds a packet", next.q.n+i)
		}
	}
}
