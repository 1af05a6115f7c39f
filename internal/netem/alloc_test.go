package netem

import (
	"testing"

	"slowcc/internal/sim"
)

// steadyLink builds a saturated pooled link whose sink releases every
// delivered packet, plus a feeder that keeps the queue non-empty. It
// returns the engine and a send function that offers one pooled packet.
func steadyLink() (*sim.Engine, *Link, *PacketPool, func()) {
	eng := sim.New(1)
	pool := &PacketPool{}
	l := NewLink(eng, 10e6, 0.001, NewDropTail(64), Sink{Pool: pool})
	l.Pool = pool
	send := func() {
		p := pool.Get()
		p.Kind = Data
		p.Size = 1000
		l.Send(p)
	}
	return eng, l, pool, send
}

// Steady-state link forwarding — enqueue, serialize, propagate, deliver,
// release — must allocate nothing per packet. This is the acceptance
// gate for the pooled hot path: two timers fire and one packet cycles
// through the pool for every forwarded packet.
func TestAllocsLinkForwardZero(t *testing.T) {
	eng, _, _, send := steadyLink()
	// Warm the pool and the engine's timer free list.
	for i := 0; i < 64; i++ {
		send()
	}
	eng.RunUntil(1)
	avg := testing.AllocsPerRun(200, func() {
		send()
		eng.RunUntil(eng.Now() + 0.01)
	})
	if avg != 0 {
		t.Fatalf("steady-state link forwarding allocates %v times per packet, want 0", avg)
	}
}

// Queue-refusal drops release the packet back to the pool, so a
// saturating burst neither leaks nor allocates in steady state.
func TestAllocsLinkDropZero(t *testing.T) {
	eng, l, pool, send := steadyLink()
	for i := 0; i < 128; i++ {
		send() // overflow the 64-packet queue; drops release to the pool
	}
	eng.RunUntil(1)
	if l.Stats.Drops == 0 {
		t.Fatal("burst did not overflow the queue; drop path untested")
	}
	if live := pool.Gets - pool.Puts; live != 0 {
		t.Fatalf("%d packets leaked after drain (drops must release)", live)
	}
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 66; i++ { // refill past capacity: at least one drop
			send()
		}
		eng.RunUntil(eng.Now() + 0.1)
	})
	if avg != 0 {
		t.Fatalf("drop path allocates %v times per burst, want 0", avg)
	}
}

// The pool must hand back fully zeroed packets: a reused packet carrying
// any stale field would silently corrupt an unrelated flow, and zeroing
// is what makes pooled runs bit-identical to unpooled runs.
func TestPoolZeroesOnRelease(t *testing.T) {
	pool := &PacketPool{}
	p := pool.Get()
	p.Flow = 7
	p.Kind = Feedback
	p.Seq = 99
	p.Size = 1000
	p.SentAt = 3.5
	p.CumAck = 42
	p.AckSeq = 41
	p.Echo = 1.25
	p.SenderRTT = 0.05
	p.ECT = true
	p.CE = true
	p.ECNEcho = true
	p.FB = pool.NewFeedback()
	p.FB.LossEventRate = 0.01
	pool.Put(p)
	q := pool.Get()
	if q != p {
		t.Fatal("pool did not reuse the released packet")
	}
	if *q != (Packet{}) {
		t.Fatalf("reused packet not zeroed: %+v", *q)
	}
	fb := pool.NewFeedback()
	if fb.LossEventRate != 0 || fb.RecvRate != 0 || fb.LossSeen {
		t.Fatalf("reused feedback not zeroed: %+v", *fb)
	}
}

// Double-releasing a packet is an ownership bug that would alias two
// live packets; the pool must catch it loudly.
func TestPoolDoublePutPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double Put did not panic")
		}
	}()
	pool := &PacketPool{}
	p := pool.Get()
	pool.Put(p)
	pool.Put(p)
}

// A nil pool must behave exactly like the heap allocator: fresh zeroed
// packets from Get, no-op Put. Direct-wired endpoint tests rely on this.
func TestNilPoolFallsBack(t *testing.T) {
	var pool *PacketPool
	p := pool.Get()
	if p == nil || *p != (Packet{}) {
		t.Fatalf("nil-pool Get returned %+v", p)
	}
	pool.Put(p) // must not panic
	if fb := pool.NewFeedback(); fb == nil {
		t.Fatal("nil-pool NewFeedback returned nil")
	}
}

// BenchmarkLinkForward measures the full per-packet link path (enqueue,
// serialize, propagate, deliver, recycle) with pooling on.
func BenchmarkLinkForward(b *testing.B) {
	eng, _, _, send := steadyLink()
	for i := 0; i < 64; i++ {
		send()
	}
	eng.RunUntil(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
		eng.RunUntil(eng.Now() + 0.001)
	}
}
