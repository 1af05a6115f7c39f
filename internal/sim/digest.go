package sim

import "math"

// StreamDigest is a rolling FNV-1a (64-bit) digest over the engine's
// executed-event stream. Each event folds in the tuple the differential
// queue tests compare — the execution timestamp's exact float64 bits,
// the schedule sequence number, and a clock-advanced kind byte — so two
// runs have equal digests exactly when the heap-oracle differential
// would find their event streams identical, but the comparison needs
// O(1) memory instead of a recorded trace (the pinned seed-1 macro run
// is 403989 events).
//
// The digest is wired through Engine.SetStreamDigest next to the audit
// slot: disabled it costs one nil check per executed event, enabled it
// is allocation-free (TestStreamDigestZeroAlloc pins this). The zero
// value is ready to use.
type StreamDigest struct {
	sum    uint64
	events uint64
}

// FNV-1a 64-bit parameters (FNV-0 offset basis and prime).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	// fnvPrime64Pow5 is fnvPrime64^5 mod 2^64: five zero bytes in one
	// multiply (see foldSeq).
	fnvPrime64Pow5 = fnvPrime64 * fnvPrime64 * fnvPrime64 * fnvPrime64 * fnvPrime64 & (1<<64 - 1)
)

// fold absorbs one executed event. Called from Engine.run with the
// same (prev, at, seq) arguments the audit hook receives.
func (d *StreamDigest) fold(prev, at Time, seq uint64) {
	h := d.sum
	if d.events == 0 {
		h = fnvOffset64
	}
	h = foldWord(h, floatBits(at))
	h = foldSeq(h, seq)
	var kind uint64
	if at > prev {
		kind = 1 // the clock advanced; 0 = same-timestamp successor
	}
	d.sum = (h ^ kind) * fnvPrime64
	d.events++
}

// floatBits exposes the exact bit pattern of a timestamp: digests must
// distinguish timestamps the differential trace comparison would, which
// is bit equality, not printf equality.
func floatBits(t Time) uint64 { return math.Float64bits(float64(t)) }

// foldWord folds the eight bytes of w, little-endian, FNV-1a style.
// Unrolled: the multiplies are serial whatever the shape, but the loop
// counter and its branch are not part of the chain.
func foldWord(h, w uint64) uint64 {
	h = (h ^ (w & 0xff)) * fnvPrime64
	h = (h ^ (w >> 8 & 0xff)) * fnvPrime64
	h = (h ^ (w >> 16 & 0xff)) * fnvPrime64
	h = (h ^ (w >> 24 & 0xff)) * fnvPrime64
	h = (h ^ (w >> 32 & 0xff)) * fnvPrime64
	h = (h ^ (w >> 40 & 0xff)) * fnvPrime64
	h = (h ^ (w >> 48 & 0xff)) * fnvPrime64
	return (h ^ (w >> 56)) * fnvPrime64
}

// foldSeq is foldWord for a schedule sequence number. A zero byte's
// FNV-1a step is h*P, so the k zero high bytes of a small word fold as
// one multiply by P^k, exactly; a run schedules fewer than 1<<24 timers
// in almost every sweep cell, which makes the common event four serial
// multiplies here instead of eight.
func foldSeq(h, seq uint64) uint64 {
	if seq >= 1<<24 {
		return foldWord(h, seq)
	}
	h = (h ^ (seq & 0xff)) * fnvPrime64
	h = (h ^ (seq >> 8 & 0xff)) * fnvPrime64
	h = (h ^ (seq >> 16)) * fnvPrime64
	return h * fnvPrime64Pow5
}

// Sum returns the digest over the events folded so far. An empty digest
// returns the FNV-1a offset basis — the canonical hash of no input.
func (d *StreamDigest) Sum() uint64 {
	if d.events == 0 {
		return fnvOffset64
	}
	return d.sum
}

// Events returns how many events have been folded.
func (d *StreamDigest) Events() uint64 { return d.events }

// SetStreamDigest installs d as the engine's event-stream digest; nil
// disables it. Like the audit and probe slots, the disabled path costs
// one nil check per executed event, and the digest never schedules
// timers, so enabling it cannot change the event sequence a seed
// produces.
func (e *Engine) SetStreamDigest(d *StreamDigest) { e.dig = d }
