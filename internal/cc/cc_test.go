package cc

import (
	"math/rand"
	"sort"
	"testing"

	"slowcc/internal/netem"
	"slowcc/internal/sim"
)

type ackSink struct{ acks []*netem.Packet }

func (a *ackSink) Handle(p *netem.Packet) { a.acks = append(a.acks, p) }

func data(seq int64) *netem.Packet {
	return &netem.Packet{Flow: 1, Kind: netem.Data, Seq: seq, Size: 1000, SentAt: 0.5}
}

func TestAckReceiverInOrder(t *testing.T) {
	eng := sim.New(1)
	sink := &ackSink{}
	r := NewAckReceiver(eng, 1, sink)
	for i := int64(0); i < 5; i++ {
		r.Handle(data(i))
	}
	if len(sink.acks) != 5 {
		t.Fatalf("%d acks, want 5 (every packet acked)", len(sink.acks))
	}
	last := sink.acks[4]
	if last.CumAck != 5 || last.AckSeq != 4 {
		t.Fatalf("final ack CumAck=%d AckSeq=%d, want 5/4", last.CumAck, last.AckSeq)
	}
	if last.Kind != netem.Ack {
		t.Fatalf("ack kind = %d", last.Kind)
	}
	if last.Echo != 0.5 {
		t.Fatalf("ack echo = %v, want the data packet's SentAt", last.Echo)
	}
	if r.Stats().UniqueBytes != 5000 || r.Stats().BytesRecv != 5000 {
		t.Fatalf("stats %+v", r.Stats())
	}
}

func TestAckReceiverHole(t *testing.T) {
	eng := sim.New(1)
	sink := &ackSink{}
	r := NewAckReceiver(eng, 1, sink)
	r.Handle(data(0))
	r.Handle(data(2)) // 1 missing: duplicate cumulative ack
	r.Handle(data(3))
	cums := []int64{1, 1, 1}
	for i, a := range sink.acks {
		if a.CumAck != cums[i] {
			t.Fatalf("ack %d CumAck = %d, want %d", i, a.CumAck, cums[i])
		}
	}
	// Hole fills: cumulative ack jumps over the buffered packets.
	r.Handle(data(1))
	if got := sink.acks[3].CumAck; got != 4 {
		t.Fatalf("after hole fill CumAck = %d, want 4", got)
	}
	if r.NextExpected() != 4 {
		t.Fatalf("NextExpected = %d, want 4", r.NextExpected())
	}
}

func TestAckReceiverDuplicateData(t *testing.T) {
	eng := sim.New(1)
	sink := &ackSink{}
	r := NewAckReceiver(eng, 1, sink)
	r.Handle(data(0))
	r.Handle(data(0)) // spurious retransmission
	if r.Stats().BytesRecv != 2000 {
		t.Fatalf("BytesRecv = %d, want 2000 (all arrivals count)", r.Stats().BytesRecv)
	}
	if r.Stats().UniqueBytes != 1000 {
		t.Fatalf("UniqueBytes = %d, want 1000", r.Stats().UniqueBytes)
	}
	if len(sink.acks) != 2 {
		t.Fatal("duplicates must still be acked (the ack might have been lost)")
	}
}

func TestAckReceiverIgnoresControl(t *testing.T) {
	eng := sim.New(1)
	sink := &ackSink{}
	r := NewAckReceiver(eng, 1, sink)
	r.Handle(&netem.Packet{Kind: netem.Ack})
	r.Handle(&netem.Packet{Kind: netem.Feedback})
	if len(sink.acks) != 0 || r.Stats().PktsRecv != 0 {
		t.Fatal("receiver must ignore non-data packets")
	}
}

// TestAcksAreDefaultSize checks the receiver acknowledges every data
// packet at once (no delayed ACKs, as in the paper's model), each ACK
// DefaultAckSize bytes on the wire.
func TestAcksAreDefaultSize(t *testing.T) {
	eng := sim.New(1)
	sink := &ackSink{}
	r := NewAckReceiver(eng, 1, sink)
	for i := int64(0); i < 100; i++ {
		r.Handle(data(i))
	}
	if len(sink.acks) != 100 {
		t.Fatalf("sent %d acks for 100 packets, want one each", len(sink.acks))
	}
	for _, a := range sink.acks {
		if a.Size != DefaultAckSize {
			t.Fatalf("ack size = %d, want %d", a.Size, DefaultAckSize)
		}
	}
}

func TestECNEchoClearsAfterAck(t *testing.T) {
	eng := sim.New(1)
	sink := &ackSink{}
	r := NewAckReceiver(eng, 1, sink)
	p := data(0)
	p.CE = true
	r.Handle(p)
	r.Handle(data(1))
	if !sink.acks[0].ECNEcho {
		t.Fatal("CE not echoed")
	}
	if sink.acks[1].ECNEcho {
		t.Fatal("ECN echo must clear once reported")
	}
}

func TestSenderStatsZeroValue(t *testing.T) {
	var s SenderStats
	if s.PktsSent != 0 || s.Rtx != 0 || s.Timeouts != 0 || s.LossEvents != 0 {
		t.Fatal("zero value not zero")
	}
	var r ReceiverStats
	if r.PktsRecv != 0 || r.UniqueBytes != 0 {
		t.Fatal("zero value not zero")
	}
}

// lossyStream scripts what a receiver sees from a retransmitting sender
// over a path that loses and reorders: sequences go out in order, each
// is lost with probability loss (and retransmitted a round-trip of
// packets later), and arrivals are displaced by up to jitter positions.
// Duplicates appear too: a displaced original can land after its own
// spurious retransmission. The result is a bounded reordering window —
// the steady state of every TCP-like flow in the repository.
func lossyStream(rng *rand.Rand, n int, loss float64, rtt, jitter int) []int64 {
	type arrival struct {
		at  int
		seq int64
	}
	var arr []arrival
	for i := 0; i < n; i++ {
		at := i
		for rng.Float64() < loss {
			at += rtt // lost: the retransmission arrives a round trip later
		}
		arr = append(arr, arrival{at + rng.Intn(jitter+1), int64(i)})
		if rng.Float64() < loss/4 {
			arr = append(arr, arrival{at + rtt, int64(i)}) // spurious retransmission
		}
	}
	sort.SliceStable(arr, func(i, j int) bool { return arr[i].at < arr[j].at })
	seqs := make([]int64, len(arr))
	for i, a := range arr {
		seqs[i] = a.seq
	}
	return seqs
}

// The bitset ring behind AckReceiver must give exactly the answers of
// the set it replaced (a map of the sequences above the in-order point):
// the same cumulative ACK after every packet and the same goodput count,
// through loss, reordering, duplicates, ring growth, many wraps of the
// ring, and a RAP-style stream whose hole is never filled.
func TestAckReceiverMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	streams := map[string][]int64{
		"tcp-like":    lossyStream(rng, 200_000, 0.05, 300, 40),
		"wide-window": lossyStream(rng, 50_000, 0.2, 5000, 3000),
	}
	// No retransmission: the first loss pins the in-order point and
	// everything after it is held above it for the rest of the run.
	var rap []int64
	for i := int64(0); i < 100_000; i++ {
		if i != 7 && rng.Float64() > 0.02 {
			rap = append(rap, i)
		}
	}
	streams["never-filled"] = rap

	for name, seqs := range streams {
		eng := sim.New(1)
		sink := &ackSink{}
		r := NewAckReceiver(eng, 1, sink)
		next, held, unique := int64(0), map[int64]bool{}, int64(0)
		for i, seq := range seqs {
			switch {
			case seq == next:
				unique += 1000
				for next++; held[next]; next++ {
					delete(held, next)
				}
			case seq > next && !held[seq]:
				unique += 1000
				held[seq] = true
			}
			r.Handle(data(seq))
			if got := sink.acks[len(sink.acks)-1].CumAck; got != next {
				t.Fatalf("%s: packet %d (seq %d): CumAck %d, model %d", name, i, seq, got, next)
			}
			if got := r.Stats().UniqueBytes; got != unique {
				t.Fatalf("%s: packet %d (seq %d): UniqueBytes %d, model %d", name, i, seq, got, unique)
			}
			sink.acks = sink.acks[:0]
		}
		if next == 0 || len(seqs) == 0 {
			t.Fatalf("%s: script delivered nothing in order", name)
		}
	}
}

// The receiver was the engine hot path's last steady-state allocation
// site (map inserts above every hole). With the ring spanning the
// reordering window, a pooled receiver must handle loss, reordering and
// duplicates without allocating at all.
func TestAckReceiverSteadyStateAllocs(t *testing.T) {
	pool := &netem.PacketPool{}
	eng := sim.New(1)
	r := NewAckReceiver(eng, 1, netem.Sink{Pool: pool})
	r.Pool = pool
	seqs := lossyStream(rand.New(rand.NewSource(5)), 20_000, 0.05, 300, 40)
	feed := func(from, to int) {
		for _, seq := range seqs[from:to] {
			p := pool.Get()
			p.Flow, p.Kind, p.Seq, p.Size = 1, netem.Data, seq, 1000
			r.Handle(p)
		}
	}
	const chunk = 1000
	feed(0, 2*chunk) // warm-up: pool filled, ring grown to the window
	at := 2 * chunk
	allocs := testing.AllocsPerRun(len(seqs)/chunk-3, func() {
		feed(at, at+chunk)
		at += chunk
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per %d packets under loss and reordering, want 0", allocs, chunk)
	}
	if r.NextExpected() < int64(at)-1000 {
		t.Fatalf("in-order point %d after %d arrivals: the script is not exercising delivery", r.NextExpected(), at)
	}
}
