package netem

import (
	"math/rand"
	"testing"
)

func TestREDMarksInsteadOfDropping(t *testing.T) {
	r := NewRED(10, 100, 1000, 0.0008, rand.New(rand.NewSource(1)))
	r.MarkECN = true
	r.Weight = 1.0
	// Hold the queue at mid-ramp and offer ECN-capable packets.
	for i := int64(0); i < 55; i++ {
		r.Enqueue(&Packet{Seq: i, Size: 1000, ECT: true}, 0)
	}
	marksBefore := r.Marks // fill-phase arrivals may already be marked
	marked := 0
	for i := 0; i < 5000; i++ {
		p := &Packet{Seq: int64(1000 + i), Size: 1000, ECT: true}
		if !r.Enqueue(p, 0) {
			t.Fatal("ECN-capable packet dropped on the early ramp; must be marked instead")
		}
		if p.CE {
			marked++
		}
		r.Dequeue(0)
	}
	if marked == 0 {
		t.Fatal("no packets marked on a congested marking queue")
	}
	if r.Marks-marksBefore != int64(marked) {
		t.Fatalf("Marks counter grew %d, observed %d", r.Marks-marksBefore, marked)
	}
	if r.EarlyDrops != 0 {
		t.Fatalf("EarlyDrops = %d with pure ECT traffic, want 0", r.EarlyDrops)
	}
}

func TestREDECNStillDropsNonECT(t *testing.T) {
	r := NewRED(10, 100, 1000, 0.0008, rand.New(rand.NewSource(1)))
	r.MarkECN = true
	r.Weight = 1.0
	for i := int64(0); i < 55; i++ {
		r.Enqueue(&Packet{Seq: i, Size: 1000}, 0)
	}
	drops := 0
	for i := 0; i < 5000; i++ {
		if !r.Enqueue(&Packet{Seq: int64(1000 + i), Size: 1000}, 0) {
			drops++
		} else {
			r.Dequeue(0)
		}
	}
	if drops == 0 {
		t.Fatal("non-ECT packets never dropped on a marking queue")
	}
}

func TestREDECNOverflowStillDrops(t *testing.T) {
	r := NewRED(1e8, 1e9, 10, 0.0008, rand.New(rand.NewSource(1)))
	r.MarkECN = true
	for i := int64(0); i < 10; i++ {
		if !r.Enqueue(&Packet{Seq: i, Size: 1000, ECT: true}, 0) {
			t.Fatal("dropped below capacity")
		}
	}
	if r.Enqueue(&Packet{Seq: 99, Size: 1000, ECT: true}, 0) {
		t.Fatal("physical overflow must drop even ECN-capable packets")
	}
	if r.ForcedDrops != 1 {
		t.Fatalf("ForcedDrops = %d, want 1", r.ForcedDrops)
	}
}
