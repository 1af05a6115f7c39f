package trace

import (
	"bytes"
	"strings"
	"testing"

	"slowcc/internal/cc"
	"slowcc/internal/cc/tcp"
	"slowcc/internal/netem"
	"slowcc/internal/sim"
	"slowcc/internal/topology"
)

func TestRecorderUnbounded(t *testing.T) {
	var r Recorder
	for i := 0; i < 100; i++ {
		r.Record(Event{T: float64(i), Seq: int64(i)})
	}
	if r.Len() != 100 || r.Total() != 100 {
		t.Fatalf("Len=%d Total=%d, want 100/100", r.Len(), r.Total())
	}
	evs := r.Events()
	for i, ev := range evs {
		if ev.Seq != int64(i) {
			t.Fatal("events out of order")
		}
	}
}

func TestRecorderRing(t *testing.T) {
	r := Recorder{Limit: 10}
	for i := 0; i < 25; i++ {
		r.Record(Event{Seq: int64(i)})
	}
	if r.Len() != 10 || r.Total() != 25 {
		t.Fatalf("Len=%d Total=%d, want 10/25", r.Len(), r.Total())
	}
	evs := r.Events()
	if evs[0].Seq != 15 || evs[9].Seq != 24 {
		t.Fatalf("ring kept %d..%d, want 15..24", evs[0].Seq, evs[9].Seq)
	}
}

func TestRecorderRingWrapBoundary(t *testing.T) {
	const limit = 7
	check := func(total int) {
		t.Helper()
		r := Recorder{Limit: limit}
		for i := 0; i < total; i++ {
			r.Record(Event{T: float64(i), Seq: int64(i)})
		}
		wantLen := total
		if wantLen > limit {
			wantLen = limit
		}
		if r.Len() != wantLen || r.Total() != total {
			t.Fatalf("after %d records: Len=%d Total=%d, want %d/%d",
				total, r.Len(), r.Total(), wantLen, total)
		}
		evs := r.Events()
		if len(evs) != wantLen {
			t.Fatalf("after %d records: Events len %d, want %d", total, len(evs), wantLen)
		}
		first := int64(total - wantLen)
		for i, ev := range evs {
			if ev.Seq != first+int64(i) {
				t.Fatalf("after %d records: Events()[%d].Seq = %d, want %d (got %v)",
					total, i, ev.Seq, first+int64(i), evs)
			}
		}
	}
	// Every total around the wrap boundaries: empty, partial fill, exactly
	// full, one past full (first eviction), mid-second-lap, exactly two
	// laps (start back at 0 while full), and past that.
	for _, total := range []int{0, 1, limit - 1, limit, limit + 1, limit + 3, 2 * limit, 2*limit + 1, 5*limit + 2} {
		check(total)
	}
}

func TestRecorderRingEventsDoNotAliasStorage(t *testing.T) {
	r := Recorder{Limit: 4}
	for i := 0; i < 6; i++ {
		r.Record(Event{Seq: int64(i)})
	}
	evs := r.Events()
	evs[0].Seq = -99
	if got := r.Events()[0].Seq; got != 2 {
		t.Fatalf("mutating Events() result leaked into the ring: oldest Seq = %d, want 2", got)
	}
}

func TestRecorderRingWriteTSVAfterWrap(t *testing.T) {
	r := Recorder{Limit: 3}
	for i := 0; i < 5; i++ {
		r.Record(Event{T: float64(i), Op: Recv, Flow: 1, Seq: int64(i), Size: 1000})
	}
	var buf bytes.Buffer
	if err := r.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("TSV lines %d, want header + 3 rows", len(lines))
	}
	for i, want := range []string{"2.000000", "3.000000", "4.000000"} {
		if !strings.HasPrefix(lines[i+1], want+"\t") {
			t.Fatalf("row %d = %q, want t=%s first", i, lines[i+1], want)
		}
	}
}

func TestOpStrings(t *testing.T) {
	for op, want := range map[Op]string{Send: "send", Recv: "recv", Drop: "drop", Mark: "mark", Op(99): "?"} {
		if op.String() != want {
			t.Fatalf("Op(%d) = %q, want %q", op, op.String(), want)
		}
	}
}

func TestLinkTapRecordsDropsAndMarks(t *testing.T) {
	var r Recorder
	tap := r.LinkTap()
	tap(nil, netem.TapEnqueue, &netem.Packet{Flow: 1, Seq: 0, Size: 1000}, 0.5)
	tap(nil, netem.TapDrop, &netem.Packet{Flow: 1, Seq: 1, Size: 1000}, 0.6)
	tap(nil, netem.TapEnqueue, &netem.Packet{Flow: 1, Seq: 2, Size: 1000, CE: true}, 0.7)
	// One event per arrival: the rest of the packet's life is not recorded.
	for _, op := range []netem.TapOp{netem.TapTxStart, netem.TapTxEnd, netem.TapDeliver, netem.TapSettled} {
		tap(nil, op, &netem.Packet{Flow: 1, Seq: 2, Size: 1000, CE: true}, 0.8)
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("%d events, want 3", len(evs))
	}
	if evs[0].Op != Recv || evs[1].Op != Drop || evs[2].Op != Mark {
		t.Fatalf("ops %v %v %v, want recv/drop/mark", evs[0].Op, evs[1].Op, evs[2].Op)
	}
}

func TestWriteTSV(t *testing.T) {
	var r Recorder
	r.Record(Event{T: 1.5, Op: Send, Flow: 3, Kind: netem.Data, Seq: 42, Size: 1000})
	r.Record(Event{T: 1.6, Op: Recv, Flow: 3, Kind: netem.Data, Seq: 42, Size: 1000, Hop: "fwd1"})
	var buf bytes.Buffer
	if err := r.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("TSV lines: %d", len(lines))
	}
	if lines[0] != "t\top\tflow\tkind\tseq\tsize\thop" {
		t.Fatalf("header %q", lines[0])
	}
	if lines[1] != "1.500000\tsend\t3\t0\t42\t1000\t" {
		t.Fatalf("row %q", lines[1])
	}
	if lines[2] != "1.600000\trecv\t3\t0\t42\t1000\tfwd1" {
		t.Fatalf("row %q", lines[2])
	}
}

func TestHopTapStampsHopIdentity(t *testing.T) {
	var r Recorder
	tap0 := r.HopTap("fwd0")
	tap1 := r.HopTap("fwd1")
	tap0(nil, netem.TapEnqueue, &netem.Packet{Flow: 1, Seq: 7, Size: 1000}, 0.1)
	tap1(nil, netem.TapDrop, &netem.Packet{Flow: 1, Seq: 7, Size: 1000}, 0.2)
	evs := r.Events()
	if evs[0].Hop != "fwd0" || evs[1].Hop != "fwd1" {
		t.Fatalf("hops %q %q, want fwd0/fwd1", evs[0].Hop, evs[1].Hop)
	}
	// Without the hop tag these two events would only differ in time/op:
	// the tag is what attributes them to distinct links.
	if evs[0].Op != Recv || evs[1].Op != Drop {
		t.Fatalf("ops %v %v", evs[0].Op, evs[1].Op)
	}
}

func TestTSVRoundTrip(t *testing.T) {
	var r Recorder
	r.Record(Event{T: 0.25, Op: Send, Flow: 1, Kind: netem.Data, Seq: 0, Size: 1000})
	r.Record(Event{T: 0.5, Op: Recv, Flow: 1, Kind: netem.Data, Seq: 0, Size: 1000, Hop: "lr"})
	r.Record(Event{T: 0.75, Op: Drop, Flow: 2, Kind: netem.Ack, Seq: 9, Size: 40, Hop: "access-2-rl-out"})
	r.Record(Event{T: 1.0, Op: Mark, Flow: 1, Kind: netem.Data, Seq: 3, Size: 1000, Hop: "lr"})
	var buf bytes.Buffer
	if err := r.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := r.Events()
	if len(got) != len(want) {
		t.Fatalf("round trip: %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestReadTSVRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"",
		"not\ta\theader\n",
		"t\top\tflow\tkind\tseq\tsize\thop\n1.0\tteleport\t1\t0\t0\t1000\t\n",
		"t\top\tflow\tkind\tseq\tsize\thop\n1.0\tsend\t1\t0\n",
	} {
		if _, err := ReadTSV(strings.NewReader(in)); err == nil {
			t.Fatalf("ReadTSV(%q) accepted garbage", in)
		}
	}
}

func TestFilterAndBinRates(t *testing.T) {
	var r Recorder
	// Flow 1: 1000B at t=0.1 and t=0.4 (bin 0), 1000B at t=1.2 (bin 1).
	r.Record(Event{T: 0.1, Op: Recv, Flow: 1, Size: 1000})
	r.Record(Event{T: 0.4, Op: Recv, Flow: 1, Size: 1000})
	r.Record(Event{T: 1.2, Op: Recv, Flow: 1, Size: 1000})
	r.Record(Event{T: 0.2, Op: Recv, Flow: 2, Size: 500}) // other flow
	r.Record(Event{T: 0.3, Op: Drop, Flow: 1, Size: 999}) // other op
	rates := r.BinRates(1, Recv, 1.0)
	if len(rates) != 2 {
		t.Fatalf("bins = %d, want 2", len(rates))
	}
	if rates[0] != 2000 || rates[1] != 1000 {
		t.Fatalf("rates %v, want [2000 1000]", rates)
	}
	if got := len(r.Filter(-1, Recv)); got != 4 {
		t.Fatalf("any-flow recv filter found %d, want 4", got)
	}
	if r.BinRates(9, Recv, 1.0) != nil {
		t.Fatal("no-match BinRates must be nil")
	}
}

func TestEndToEndTraceOfARealFlow(t *testing.T) {
	eng := sim.New(1)
	d := topology.New(eng, topology.Config{Rate: 10e6, Seed: 71})
	var rec Recorder
	d.Fwd[0].AddTap(rec.LinkTap())

	rcv := cc.NewAckReceiver(eng, 1, nil)
	snd := tcp.NewSender(eng, nil, tcp.Config{Flow: 1})
	d.Connect(1, snd, rcv, topology.Span{})
	out := snd.Out
	snd.Out = netem.HandlerFunc(func(p *netem.Packet) {
		rec.Record(Event{T: eng.Now(), Op: Send, Flow: p.Flow, Kind: p.Kind, Seq: p.Seq, Size: p.Size})
		out.Handle(p)
	})
	eng.At(0, snd.Start)
	eng.RunUntil(20)

	sends := rec.Filter(1, Send)
	if int64(len(sends)) != snd.Stats().PktsSent {
		t.Fatalf("trace saw %d sends, sender counted %d", len(sends), snd.Stats().PktsSent)
	}
	drops := rec.Filter(1, Drop)
	if len(drops) == 0 {
		t.Fatal("a saturating flow should show drops at the bottleneck trace")
	}
	recvs := rec.Filter(1, Recv)
	seen := int64(len(recvs) + len(drops))
	// Packets still in flight on the access link at the horizon have
	// been sent but not yet offered to the bottleneck.
	if seen > snd.Stats().PktsSent || seen < snd.Stats().PktsSent-200 {
		t.Fatalf("accepted %d + dropped %d vs sent %d at the bottleneck",
			len(recvs), len(drops), snd.Stats().PktsSent)
	}
	// Rate series covers the run and sums to the accepted volume.
	rates := rec.BinRates(1, Recv, 1.0)
	var vol float64
	for _, x := range rates {
		vol += x
	}
	if int64(vol) != int64(len(recvs))*1000 {
		t.Fatalf("binned volume %v != accepted bytes %d", vol, len(recvs)*1000)
	}
}
