package netem

import (
	"testing"

	"slowcc/internal/sim"
)

// tapEvent is one tap call as the contract test logs it: the op, the
// packet's sequence number (0 for TapSettled, which carries no packet —
// test packets are numbered from 1 so a packet zeroed by the pool cannot
// pass for one), and which of the two attached taps was called.
type tapEvent struct {
	op  TapOp
	seq int64
	tap int
}

// TestTapContract pins what a Tap is promised, with two taps attached:
// the per-packet op sequence (through a busy period chained on txDone
// too), one drop per refusal seen before the pool gets the packet back,
// TapSettled at each of its five points with the conservation law true,
// and registration-order fan-out.
func TestTapContract(t *testing.T) {
	type ev = tapEvent // the tap index is filled in when comparing
	settled := ev{op: TapSettled}
	cases := []struct {
		name string
		qcap int
		// drive offers traffic and schedules link state changes; the
		// engine then runs dry.
		drive func(eng *sim.Engine, l *Link, send func(seq int64))
		want  []ev
		// drops is the number of refusals, each released to the pool.
		drops int64
	}{
		{
			// Settled points: Send accepted, transmission completion.
			name: "accepted",
			qcap: 10,
			drive: func(_ *sim.Engine, _ *Link, send func(int64)) {
				send(1)
			},
			want: []ev{
				{op: TapEnqueue, seq: 1}, {op: TapTxStart, seq: 1}, settled,
				{op: TapTxEnd, seq: 1}, settled,
				{op: TapDeliver, seq: 1},
			},
		},
		{
			// Settled point: Send refused by the queue. Packet 1 is on the
			// wire, 2 fills the one-slot queue, 3 is refused.
			name: "queue refusal",
			qcap: 1,
			drive: func(_ *sim.Engine, _ *Link, send func(int64)) {
				send(1)
				send(2)
				send(3)
			},
			want: []ev{
				{op: TapEnqueue, seq: 1}, {op: TapTxStart, seq: 1}, settled,
				{op: TapEnqueue, seq: 2}, settled,
				{op: TapDrop, seq: 3}, settled,
				{op: TapTxEnd, seq: 1}, {op: TapTxStart, seq: 2}, settled,
				{op: TapDeliver, seq: 1},
				{op: TapTxEnd, seq: 2}, settled,
				{op: TapDeliver, seq: 2},
			},
			drops: 1,
		},
		{
			// Settled points: Send refused at a DownDrop link, SetUp.
			name: "down drop refusal",
			qcap: 10,
			drive: func(_ *sim.Engine, l *Link, send func(int64)) {
				l.SetDown(DownDrop)
				send(1)
				l.SetUp()
			},
			want:  []ev{{op: TapDrop, seq: 1}, settled, settled},
			drops: 1,
		},
		{
			// A DownQueue link accepts without transmitting; SetUp starts
			// the backlog and settles after it has.
			name: "set up restarts the backlog",
			qcap: 10,
			drive: func(eng *sim.Engine, l *Link, send func(int64)) {
				l.SetDown(DownQueue)
				send(1)
				eng.At(0.010, l.SetUp)
			},
			want: []ev{
				{op: TapEnqueue, seq: 1}, settled,
				{op: TapTxStart, seq: 1}, settled,
				{op: TapTxEnd, seq: 1}, settled,
				{op: TapDeliver, seq: 1},
			},
		},
		{
			// Three packets back to back ride one re-armed txDone timer;
			// each completion reports its own packet, starts the next and
			// only then settles.
			name: "busy period",
			qcap: 10,
			drive: func(_ *sim.Engine, _ *Link, send func(int64)) {
				send(1)
				send(2)
				send(3)
			},
			want: []ev{
				{op: TapEnqueue, seq: 1}, {op: TapTxStart, seq: 1}, settled,
				{op: TapEnqueue, seq: 2}, settled,
				{op: TapEnqueue, seq: 3}, settled,
				{op: TapTxEnd, seq: 1}, {op: TapTxStart, seq: 2}, settled,
				{op: TapDeliver, seq: 1},
				{op: TapTxEnd, seq: 2}, {op: TapTxStart, seq: 3}, settled,
				{op: TapDeliver, seq: 2},
				{op: TapTxEnd, seq: 3}, settled,
				{op: TapDeliver, seq: 3},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New(1)
			pool := &PacketPool{}
			// 8 Mbps: 1 ms per 1000-byte packet; 0.5 ms propagation keeps
			// deliveries off the transmission-completion instants.
			l := NewLink(eng, 8e6, 0.0005, NewDropTail(tc.qcap), Sink{Pool: pool})
			l.Pool = pool
			var log []tapEvent
			for i := 0; i < 2; i++ {
				i := i
				l.AddTap(func(tl *Link, op TapOp, p *Packet, now sim.Time) {
					if tl != l {
						t.Errorf("tap %d handed link %p, attached to %p", i, tl, l)
					}
					if now != eng.Now() {
						t.Errorf("tap %d handed now=%v at t=%v", i, now, eng.Now())
					}
					e := tapEvent{op: op, tap: i}
					if p != nil {
						e.seq = p.Seq
					}
					switch op {
					case TapSettled:
						if p != nil {
							t.Errorf("TapSettled carried packet %d, want nil", p.Seq)
						}
						inTx := int64(0)
						if l.Busy() {
							inTx = 1
						}
						if s := l.Stats; s.Arrivals != s.Drops+s.Departures+int64(l.Q.Len())+inTx {
							t.Errorf("t=%v: settled with arrivals %d != drops %d + departures %d + queued %d + busy %d",
								now, s.Arrivals, s.Drops, s.Departures, l.Q.Len(), inTx)
						}
					case TapDrop:
						// The drop is counted, the packet not yet released.
						if got, want := pool.Puts, l.Stats.Drops-1; got != want {
							t.Errorf("drop of packet %d seen with %d packets released, want %d", p.Seq, got, want)
						}
					}
					log = append(log, e)
				})
			}
			tc.drive(eng, l, func(seq int64) {
				p := pool.Get()
				p.Kind, p.Seq, p.Size = Data, seq, 1000
				l.Send(p)
			})
			eng.Run()

			if len(log) != 2*len(tc.want) {
				t.Fatalf("%d tap calls, want %d (each of %d points once per tap): %v", len(log), 2*len(tc.want), len(tc.want), log)
			}
			for i, w := range tc.want {
				for w.tap = 0; w.tap < 2; w.tap++ {
					if got := log[2*i+w.tap]; got != w {
						t.Fatalf("call %d is %+v, want %+v: %+v", 2*i+w.tap, got, w, log)
					}
				}
			}
			if l.Stats.Drops != tc.drops {
				t.Fatalf("Drops = %d, want %d", l.Stats.Drops, tc.drops)
			}
			if live := pool.Gets - pool.Puts; live != 0 {
				t.Fatalf("%d packets never returned to the pool", live)
			}
		})
	}
}
