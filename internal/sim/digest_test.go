package sim

import (
	"math"
	"math/rand"
	"testing"
)

// digestWorkload drives eng through a deterministic mixed schedule —
// self-rescheduling cadences at coprime periods plus a burst of
// same-instant timers — busy enough to exercise rotation/overflow in
// calendar mode and sibling ordering in heap mode.
func digestWorkload(eng *Engine, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 8; i++ {
		period := 0.001 * float64(i+1)
		var tick func()
		tick = func() { eng.After(period, tick) }
		eng.After(period, tick)
	}
	for i := 0; i < 64; i++ {
		eng.At(rng.Float64()*2, func() {})
	}
	eng.RunUntil(2)
}

func TestStreamDigestEmptyAndReset(t *testing.T) {
	var d StreamDigest
	if d.Sum() != fnvOffset64 {
		t.Fatalf("empty digest Sum = %#x, want FNV offset basis %#x", d.Sum(), uint64(fnvOffset64))
	}
	if d.Events() != 0 {
		t.Fatalf("empty digest Events = %d", d.Events())
	}
	d.fold(0, 1, 1)
	if d.Events() != 1 || d.Sum() == fnvOffset64 {
		t.Fatalf("after one fold: events=%d sum=%#x", d.Events(), d.Sum())
	}
	d.Reset()
	if d.Sum() != fnvOffset64 || d.Events() != 0 {
		t.Fatalf("Reset did not restore empty state: events=%d sum=%#x", d.Events(), d.Sum())
	}
}

// The digest must distinguish every component of the (at, seq, kind)
// tuple: two streams that differ in any one of them — or only in event
// order — hash differently.
func TestStreamDigestDistinguishesTupleComponents(t *testing.T) {
	sum := func(tuples [][3]float64) uint64 {
		var d StreamDigest
		for _, tp := range tuples {
			d.fold(Time(tp[0]), Time(tp[1]), uint64(tp[2]))
		}
		return d.Sum()
	}
	base := sum([][3]float64{{0, 1, 1}, {1, 2, 2}})
	for name, alt := range map[string][][3]float64{
		"at differs":    {{0, 1, 1}, {1, 2.5, 2}},
		"seq differs":   {{0, 1, 1}, {1, 2, 3}},
		"kind differs":  {{0, 1, 1}, {2, 2, 2}}, // same at/seq, clock did not advance
		"order differs": {{1, 2, 2}, {0, 1, 1}},
		"one short":     {{0, 1, 1}},
	} {
		if sum(alt) == base {
			t.Errorf("%s: digest collided with base stream", name)
		}
	}
	if sum([][3]float64{{0, 1, 1}, {1, 2, 2}}) != base {
		t.Fatal("identical streams digested differently")
	}
}

// Identical schedules must digest identically across queue kinds: the
// calendar queue and the heap fallback promise the same (at, seq) total
// order, and the digest is how that promise is checked in O(1) memory.
func TestStreamDigestMatchesAcrossQueueKinds(t *testing.T) {
	sums := map[QueueKind]uint64{}
	events := map[QueueKind]uint64{}
	for _, kind := range []QueueKind{CalendarQueue, HeapQueue} {
		eng := NewWithQueue(7, kind)
		var d StreamDigest
		eng.SetStreamDigest(&d)
		digestWorkload(eng, 7)
		sums[kind] = d.Sum()
		events[kind] = d.Events()
		if d.Events() != eng.Steps() {
			t.Fatalf("%v: digest saw %d events, engine executed %d", kind, d.Events(), eng.Steps())
		}
	}
	if events[CalendarQueue] != events[HeapQueue] {
		t.Fatalf("event counts diverged: calendar %d, heap %d", events[CalendarQueue], events[HeapQueue])
	}
	if sums[CalendarQueue] != sums[HeapQueue] {
		t.Fatalf("stream digests diverged: calendar %#x, heap %#x", sums[CalendarQueue], sums[HeapQueue])
	}
}

// A wired digest must not allocate: it rides the hot path of every
// executed event.
func TestStreamDigestZeroAlloc(t *testing.T) {
	var d StreamDigest
	var at Time
	var seq uint64
	allocs := testing.AllocsPerRun(1000, func() {
		prev := at
		at += 0.001
		seq++
		d.fold(prev, at, seq)
	})
	if allocs != 0 {
		t.Fatalf("StreamDigest.fold allocates %.1f per event, want 0", allocs)
	}
}

// The disabled path is one nil check: running with no digest installed
// must stay allocation-free exactly like the audit-off path.
func TestStreamDigestDisabledZeroAlloc(t *testing.T) {
	eng := New(3)
	var fn func(any)
	fn = func(arg any) { eng.AfterFunc(0.001, fn, arg) }
	eng.AfterFunc(0.001, fn, nil)
	eng.RunUntil(1) // warm the timer free list
	var horizon Time = 1
	allocs := testing.AllocsPerRun(100, func() {
		horizon += 0.1
		eng.RunUntil(horizon)
	})
	if allocs != 0 {
		t.Fatalf("digest-off run allocates %.1f per leg, want 0", allocs)
	}
}

// foldWordRef is FNV-1a over the eight little-endian bytes of w, one
// byte per iteration: the definition foldWord and foldSeq must equal.
func foldWordRef(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (w & 0xff)) * fnvPrime64
		w >>= 8
	}
	return h
}

// The unrolled fold and the sequence word's zero-byte shortcut are
// arithmetic identities, not approximations: every word, from every
// state, folds to what the byte-serial loop gives.
func TestFoldMatchesByteSerialReference(t *testing.T) {
	words := []uint64{0, 1, 0xff, 0x100, 1<<24 - 1, 1 << 24, 1<<24 + 1, 1<<32 - 1, 1 << 56, math.MaxUint64}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		w := rng.Uint64()
		words = append(words, w, w>>40, w>>(rng.Intn(64))) // full-width, below 1<<24, any width
	}
	h := uint64(fnvOffset64)
	for _, w := range words {
		want := foldWordRef(h, w)
		if got := foldWord(h, w); got != want {
			t.Fatalf("foldWord(%#x, %#x) = %#x, byte-serial %#x", h, w, got, want)
		}
		if got := foldSeq(h, w); got != want {
			t.Fatalf("foldSeq(%#x, %#x) = %#x, byte-serial %#x", h, w, got, want)
		}
		h = want // walk the state too: the identity holds from any h
	}

	// And through fold itself, against the same tuple spelled out.
	var d StreamDigest
	ref := uint64(fnvOffset64)
	var at Time
	for i, seq := range words {
		prev := at
		kind := uint64(0)
		if i%3 != 0 {
			at += 0.125
			kind = 1
		}
		d.fold(prev, at, seq)
		ref = (foldWordRef(foldWordRef(ref, floatBits(at)), seq) ^ kind) * fnvPrime64
		if d.Sum() != ref {
			t.Fatalf("event %d (seq %#x): fold %#x, byte-serial %#x", i, seq, d.Sum(), ref)
		}
	}
}
