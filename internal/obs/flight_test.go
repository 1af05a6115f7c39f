package obs_test

// The flight ring an audited scenario dumps on its first violation is a
// trace.Recorder with a Limit (internal/exp/audit.go). These tests pin
// the three things a dump reader relies on: the ring keeps the newest
// packets in order, a link tap records one classified event per arrival,
// and the ops print as the dump's labels.

import (
	"testing"

	"slowcc/internal/netem"
	"slowcc/internal/trace"
)

func TestFlightRecorderRingWrap(t *testing.T) {
	fr := trace.Recorder{Limit: 4}
	for i := 0; i < 6; i++ {
		fr.Record(trace.Event{T: float64(i), Op: trace.Recv, Flow: 1, Seq: int64(i), Size: 1000})
	}
	if fr.Total() != 6 {
		t.Fatalf("Total = %d, want 6", fr.Total())
	}
	recs := fr.Events()
	if len(recs) != 4 {
		t.Fatalf("retained %d, want 4", len(recs))
	}
	for i, r := range recs {
		if r.Seq != int64(i+2) {
			t.Fatalf("Events()[%d].Seq = %d, want %d", i, r.Seq, i+2)
		}
	}
}

func TestFlightRecorderLinkTapClassification(t *testing.T) {
	fr := trace.Recorder{Limit: 8}
	tap := fr.LinkTap()
	tap(nil, netem.TapEnqueue, &netem.Packet{Flow: 1, Seq: 0, Size: 1000}, 0.5)
	tap(nil, netem.TapDrop, &netem.Packet{Flow: 1, Seq: 1, Size: 1000}, 0.6)
	tap(nil, netem.TapEnqueue, &netem.Packet{Flow: 1, Seq: 2, Size: 1000, CE: true}, 0.7)
	for _, op := range []netem.TapOp{netem.TapTxStart, netem.TapTxEnd, netem.TapDeliver, netem.TapSettled} {
		tap(nil, op, &netem.Packet{Flow: 1, Seq: 2, Size: 1000, CE: true}, 0.8)
	}
	recs := fr.Events()
	if len(recs) != 3 {
		t.Fatalf("%d records, want 3 (one per arrival)", len(recs))
	}
	if recs[0].Op != trace.Recv || recs[1].Op != trace.Drop || recs[2].Op != trace.Mark {
		t.Fatalf("ops %v %v %v, want recv/drop/mark", recs[0].Op, recs[1].Op, recs[2].Op)
	}
}

func TestPacketOpStrings(t *testing.T) {
	for op, want := range map[trace.Op]string{trace.Send: "send", trace.Recv: "recv", trace.Drop: "drop", trace.Mark: "mark", trace.Op(99): "?"} {
		if op.String() != want {
			t.Fatalf("Op(%d) = %q, want %q", op, op.String(), want)
		}
	}
}
