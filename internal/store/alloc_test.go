package store_test

import (
	"testing"

	"slowcc/internal/obs"
	"slowcc/internal/store"
)

// The allocation budget of a warm replay's read side. A replayed sweep
// pays these once per stored cell, so a regression here multiplies by
// the sweep's size.

// Open allocates, per frame, only the entry and the strings it keeps
// (schema and key; a served entry's error is empty), plus a constant
// for the store itself and its map.
func TestAllocsOpenSnapshot(t *testing.T) {
	const frames = 294
	dir := matrixShapedStore(t)
	avg := testing.AllocsPerRun(20, func() {
		s, err := store.OpenReadOnly(dir)
		if err != nil || s.Len() != frames {
			t.Fatalf("%d entries, %v", s.Len(), err)
		}
	})
	if budget := float64(3*frames + 48); avg > budget {
		t.Fatalf("Open of %d frames allocates %v times, want at most %v", frames, avg, budget)
	}
}

// A matrix cell's result decodes into its value and its four strings.
func TestAllocsDecodeMatrixCell(t *testing.T) {
	blob := encode(t, matrixResult)
	avg := testing.AllocsPerRun(100, func() {
		if _, err := store.Decode[matrixCell](blob); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 5 {
		t.Fatalf("Decode of a matrix cell allocates %v times, want at most 5", avg)
	}
}

// A cell's telemetry decodes without a string per counter: the counter
// names are interned, so only the value and its map allocate.
func TestAllocsDecodeStats(t *testing.T) {
	blob := encodeStats(t, matrixStats(1))
	if _, err := store.Decode[obs.CellStats](blob); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := store.Decode[obs.CellStats](blob); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 10 {
		t.Fatalf("Decode of a 50-counter CellStats allocates %v times, want at most 10", avg)
	}
}
