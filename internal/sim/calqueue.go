package sim

import "math"

// The calendar queue (Brown, CACM 1988, adapted) buckets pending timers
// by time: bucket i of a power-of-two ring holds every timer whose epoch
// — its timestamp divided by the bucket width — is congruent to i. A
// cursor (curEpoch) sweeps the ring like a calendar's "today" page; pops
// read the front of the current bucket, inserts drop timers into their
// bucket in (at, seq) order. For the tick-dominated schedules the
// simulator produces (per-packet TxTime at a bottleneck), both
// operations are O(1) amortized, versus O(log n) sifts in the heap.
//
// Exactness, not approximation: the queue implements the identical
// (at, seq) total order as the heap. The argument (DESIGN.md §13) rests
// on three properties:
//
//  1. epochOf is monotone: a.at <= b.at implies epochOf(a) <= epochOf(b),
//     because int64 truncation of a monotone non-negative float map is
//     monotone. Equal timestamps always map to the same epoch and hence
//     the same bucket, so FIFO ties are resolved by the in-bucket
//     (at, seq) sort and never split across buckets.
//  2. Every bucketed timer's epoch is >= curEpoch at all times: inserts
//     behind the cursor rewind it (place), pops only advance it past
//     epochs whose bucket front was inspected, and the direct scan
//     resets it to the true minimum. Therefore the first bucket front
//     the sweep finds at its own epoch is the global bucketed minimum.
//  3. Far-future timers — beyond one full ring revolution ("year") —
//     live in a single (at, seq)-sorted overflow slice. The sweep
//     compares its head against every bucket candidate with the same
//     timerLess as the heap, so overflow residency can delay nothing
//     and reorder nothing; pathological schedules degrade to a sorted
//     slice, never to a corrupted order.
//
// The ring is sized by two measurements: how many timers are pending
// (two per bucket at most) and where they land — when more than one pop
// in eight came through the far tier, the year is shorter than a delay
// the schedule uses all the time, and the ring doubles until it is not;
// once placements stop reaching that far, the size is released again.
//
// Bucket membership is an intrusive doubly-linked list through
// Timer.next/prev: no per-bucket storage to allocate or reindex, O(1)
// Stop/unlink, and a ring of buckets is a single flat allocation.

const (
	// calMinBuckets is the initial and minimum ring size; must be a
	// power of two so bucket = epoch & mask.
	calMinBuckets = 256
	// calDefaultWidth is the bucket width before any HintTick or
	// adaptation: 100 µs spans the paper's per-packet event cadences
	// (0.1–1.2 ms tx times, sub-ms ack clocks) well enough to start.
	calDefaultWidth Time = 100e-6
	// calAdaptEvery pops, the width adapter compares the bucket width
	// against the observed inter-event gap EWMA and rebuilds if they
	// disagree by more than calAdaptBand either way.
	calAdaptEvery = 4096
	calAdaptBand  = 8.0
	// calMaxBuckets caps the doubling that far-tier traffic drives (1 MB
	// of ring); occupancy growth is bounded by the timer count instead.
	calMaxBuckets = 1 << 16

	bktNone     int32 = -1 // not queued
	bktOverflow int32 = -2 // resident in the sorted overflow slice
)

// calBucket is one ring slot: the head/tail of its (at, seq)-sorted
// intrusive list.
type calBucket struct {
	head, tail *Timer
}

type calQueue struct {
	b        []calBucket
	mask     int64 // len(b)-1; len(b) is a power of two
	width    Time
	invWidth float64 // 1/width; epochs are computed as at*invWidth
	curEpoch int64   // sweep cursor; invariant: every bucketed epoch >= curEpoch
	n        int     // live timers across buckets and overflow

	// overflow holds timers at least one ring revolution ahead of the
	// cursor, sorted by (at, seq); entries before ohead have been popped
	// or migrated and await compact. Timer.index is the absolute slice
	// position.
	overflow []*Timer
	ohead    int

	// Adaptation state, checked every calAdaptEvery pops: an EWMA of
	// nonzero inter-pop gaps sizes the width; the pops and migrations
	// that came through the overflow (farPops, farMark its value at the
	// last check) size the ring, and floor keeps the occupancy rule from
	// shrinking it back. reach is how many buckets ahead of the cursor
	// placements have landed — a peak, halved at every check — and is
	// what lets floor come down again.
	lastPop Time
	gapEWMA Time
	pops    int
	farPops uint64
	farMark uint64
	floor   int
	reach   int64

	// scratch is reused across rebuilds so steady-state adaptation does
	// not allocate.
	scratch []*Timer
}

// newCalQueue returns an empty queue. With old — a released engine's
// queue, emptied by drain — it keeps old's ring, overflow and scratch
// storage: the state is a fresh queue's, only the capacities differ.
func newCalQueue(width Time, old *calQueue) *calQueue {
	cq := &calQueue{width: width, invWidth: 1 / width, floor: calMinBuckets}
	if old != nil {
		cq.b, cq.overflow, cq.scratch = old.b, old.overflow[:0], old.scratch
	}
	cq.resize(calMinBuckets)
	return cq
}

// resize sets the ring to nb buckets, reusing its storage when the
// capacity allows. Every bucket past len(cq.b) is empty — drain and
// rebuild empty the whole ring before it shrinks — so a ring that grows
// back into its capacity finds empty buckets there.
func (cq *calQueue) resize(nb int) {
	if nb <= cap(cq.b) {
		cq.b = cq.b[:nb]
	} else {
		cq.b = make([]calBucket, nb)
	}
	cq.mask = int64(nb - 1)
}

// drain unlinks every queued timer, unrun, and hands it to drop, leaving
// the ring's and the overflow's storage empty for newCalQueue to reuse.
func (cq *calQueue) drain(drop func(*Timer)) {
	for i := range cq.b {
		for tm := cq.b[i].head; tm != nil; {
			next := tm.next
			drop(tm)
			tm = next
		}
		cq.b[i] = calBucket{}
	}
	for _, tm := range cq.overflow[cq.ohead:] {
		drop(tm)
	}
	clear(cq.overflow)
}

// epochOf maps a timestamp to its bucket epoch. Every classification in
// the queue uses this exact expression (or its pre-truncation float
// form), so the mapping is consistent even where float rounding makes it
// differ from a mathematical floor — consistency plus monotonicity is
// all the ordering proof needs.
func (cq *calQueue) epochOf(t Time) int64 { return int64(t * cq.invWidth) }

// insert adds tm to the queue and grows the ring when occupancy exceeds
// two timers per bucket.
func (cq *calQueue) insert(tm *Timer) {
	cq.place(tm)
	cq.n++
	if cq.n > len(cq.b)*2 {
		cq.rebuild(len(cq.b)*2, cq.width)
	}
}

// place classifies tm into its bucket or the overflow. It does not touch
// n, so rebuild and migrate can re-place live timers.
func (cq *calQueue) place(tm *Timer) {
	// The float comparison runs before truncation: a timestamp huge
	// enough to overflow int64 still lands safely in the overflow slice.
	x := tm.at * cq.invWidth
	if x >= float64(cq.curEpoch+int64(len(cq.b))) {
		cq.placeOverflow(tm)
		return
	}
	ep := int64(x)
	if ep < cq.curEpoch {
		// Rewind the sweep so the new timer is in front of the cursor:
		// re-scanning a few empty buckets is always safe, skipping an
		// event never is.
		cq.curEpoch = ep
	}
	if d := ep - cq.curEpoch; d > cq.reach {
		cq.reach = d
	}
	cq.placeBucket(int(ep&cq.mask), tm)
}

// placeBucket links tm into bucket bi in (at, seq) order, walking from
// the tail: the common schedule appends at or near the end.
func (cq *calQueue) placeBucket(bi int, tm *Timer) {
	bk := &cq.b[bi]
	after := bk.tail
	for after != nil && timerLess(tm, after) {
		after = after.prev
	}
	if after == nil {
		tm.prev = nil
		tm.next = bk.head
		if bk.head != nil {
			bk.head.prev = tm
		} else {
			bk.tail = tm
		}
		bk.head = tm
	} else {
		tm.prev = after
		tm.next = after.next
		if after.next != nil {
			after.next.prev = tm
		} else {
			bk.tail = tm
		}
		after.next = tm
	}
	tm.bkt = int32(bi)
	tm.index = 0
}

// placeOverflow inserts tm into the sorted overflow slice by binary
// search.
func (cq *calQueue) placeOverflow(tm *Timer) {
	if len(cq.overflow) == cap(cq.overflow) {
		// Full (or not yet allocated): reclaim the popped prefix, and if
		// that frees less than a quarter grow to twice the live size, 64
		// slots at least — so the capacity follows the peak live count,
		// never the traffic that passed through, and a full slice is not
		// re-compacted on every insert.
		cq.compact(true)
		if n := len(cq.overflow); n*4 >= cap(cq.overflow)*3 {
			cq.overflow = append(make([]*Timer, 0, max(64, 2*n)), cq.overflow...)
		}
	}
	of := cq.overflow
	lo, hi := cq.ohead, len(of)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if timerLess(of[mid], tm) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(of) {
		cq.overflow = append(of, tm)
	} else {
		cq.overflow = append(of, nil)
		copy(cq.overflow[lo+1:], cq.overflow[lo:])
		cq.overflow[lo] = tm
		for j := lo + 1; j < len(cq.overflow); j++ {
			cq.overflow[j].index = int32(j)
		}
	}
	tm.bkt = bktOverflow
	tm.index = int32(lo)
}

// unlink detaches tm from its bucket list.
func (cq *calQueue) unlink(tm *Timer) {
	bk := &cq.b[tm.bkt]
	if tm.prev != nil {
		tm.prev.next = tm.next
	} else {
		bk.head = tm.next
	}
	if tm.next != nil {
		tm.next.prev = tm.prev
	} else {
		bk.tail = tm.prev
	}
	tm.next, tm.prev = nil, nil
}

// remove deletes a queued timer (Stop, ResetAt re-arm) from wherever it
// lives: O(1) for bucket residents, a slice shift for overflow ones.
func (cq *calQueue) remove(tm *Timer) {
	if tm.bkt == bktOverflow {
		i := int(tm.index)
		of := cq.overflow
		copy(of[i:], of[i+1:])
		of[len(of)-1] = nil
		cq.overflow = of[:len(of)-1]
		for j := i; j < len(cq.overflow); j++ {
			cq.overflow[j].index = int32(j)
		}
		cq.compact(false)
	} else {
		cq.unlink(tm)
	}
	tm.bkt = bktNone
	tm.index = -1
	cq.n--
}

// compact slides the live overflow entries down over the popped prefix
// once that prefix is at least as long as they are (or, when force is
// set, whenever there is one). Each pop thus pays for at most one later
// move, len(overflow) stays under twice the live count, and a drained
// overflow resets to empty.
func (cq *calQueue) compact(force bool) {
	of, live := cq.overflow, len(cq.overflow)-cq.ohead
	if cq.ohead == 0 || (cq.ohead < live && !force) {
		return
	}
	copy(of, of[cq.ohead:])
	clear(of[live:])
	cq.overflow, cq.ohead = of[:live], 0
	for j, tm := range cq.overflow {
		tm.index = int32(j)
	}
}

// overflowHead returns the earliest overflow timer, nil when none.
func (cq *calQueue) overflowHead() *Timer {
	if cq.ohead < len(cq.overflow) {
		return cq.overflow[cq.ohead]
	}
	return nil
}

// findMin locates the earliest pending timer without removing it,
// leaving the sweep cursor on its epoch. Returns nil when the queue is
// empty. The sweep is bounded: after one fruitless ring revolution it
// falls back to a direct scan of every bucket front, so a sparse
// far-future schedule costs O(buckets), never an unbounded walk.
func (cq *calQueue) findMin() *Timer {
	if cq.n == 0 {
		return nil
	}
	nb := int64(len(cq.b))
	for scanned := int64(0); scanned < nb; scanned++ {
		bk := &cq.b[cq.curEpoch&cq.mask]
		if tm := bk.head; tm != nil && cq.epochOf(tm.at) == cq.curEpoch {
			// A front at its own epoch is the bucketed minimum
			// (invariant 2); only the overflow head can precede it.
			if of := cq.overflowHead(); of != nil && timerLess(of, tm) {
				return of
			}
			return tm
		}
		cq.curEpoch++
		if cq.curEpoch&cq.mask == 0 {
			// Ring wrapped: the coming revolution covers a new year, so
			// pull newly-near overflow timers into their buckets.
			cq.migrate()
		}
	}
	return cq.findMinDirect()
}

// findMinDirect scans every bucket front and the overflow head for the
// exact global minimum, then re-seats the cursor on it.
func (cq *calQueue) findMinDirect() *Timer {
	best := cq.overflowHead()
	for i := range cq.b {
		if tm := cq.b[i].head; tm != nil && (best == nil || timerLess(tm, best)) {
			best = tm
		}
	}
	if best != nil {
		if x := best.at * cq.invWidth; x < float64(1<<52) {
			cq.curEpoch = int64(x)
		}
	}
	return best
}

// migrate moves overflow timers that now fall within the ring's next
// revolution into their buckets. Called on year wrap. The limit uses the
// same pre-truncation float form as place, and is recomputed every
// iteration: place may rewind curEpoch while re-placing a timer, which
// shrinks the live limit, and re-checking against the stale one would
// bounce a timer back into the overflow head forever.
func (cq *calQueue) migrate() {
	for cq.ohead < len(cq.overflow) {
		tm := cq.overflow[cq.ohead]
		if tm.at*cq.invWidth >= float64(cq.curEpoch+int64(len(cq.b))) {
			break
		}
		cq.overflow[cq.ohead] = nil
		cq.ohead++
		cq.farPops++
		cq.place(tm)
	}
	cq.compact(false)
}

// popHead removes tm, which the caller just obtained from findMin — so
// it is either its bucket's head or the overflow head — and runs the
// occupancy/width maintenance that keeps the ring sized to the schedule.
func (cq *calQueue) popHead(tm *Timer) {
	if tm.bkt == bktOverflow {
		cq.overflow[cq.ohead] = nil
		cq.ohead++
		cq.farPops++
		cq.compact(false)
	} else {
		cq.unlink(tm)
	}
	tm.bkt = bktNone
	tm.index = -1
	cq.n--

	if gap := tm.at - cq.lastPop; gap > 0 {
		cq.lastPop = tm.at
		if cq.gapEWMA == 0 {
			cq.gapEWMA = gap
		} else {
			cq.gapEWMA += float64((gap - cq.gapEWMA) * 0.125)
		}
	}
	if cq.pops++; cq.pops >= calAdaptEvery {
		cq.pops = 0
		cq.adapt()
	}
	if cq.n < len(cq.b)/8 && len(cq.b) > cq.floor {
		cq.rebuild(len(cq.b)/2, cq.width)
	}
}

// adapt runs every calAdaptEvery pops and rebuilds when either dimension
// of the ring no longer fits the schedule. Width: matched to the observed
// event cadence when off by more than calAdaptBand in either direction
// (the band is wide so a deliberate HintTick is left alone). Size: doubled
// when more than an eighth of the window's pops came through the far
// tier — a year shorter than a delay the schedule uses routinely sends
// every such timer through the sorted slice and back — and pinned there
// by floor, since the occupancy rule in popHead knows nothing of delays.
// The floor halves again once placements reach less than a quarter of
// its year: half of it then still holds them twice over, so giving the
// buckets back to the occupancy rule cannot bring the far traffic back,
// and a sparse phase after a dense one is not left sweeping, rebuilding
// and direct-scanning a ring sized for the dense one.
func (cq *calQueue) adapt() {
	nb, width := len(cq.b), cq.width
	if (cq.farPops-cq.farMark)*8 > calAdaptEvery {
		if nb < calMaxBuckets {
			nb *= 2
			cq.floor = nb
		}
	} else if cq.reach*4 < int64(cq.floor) {
		cq.floor = max(cq.floor/2, calMinBuckets)
	}
	cq.farMark = cq.farPops
	cq.reach /= 2
	if g := cq.gapEWMA; g > 0 {
		target := min(max(2*g, 1e-12), 1e9)
		if width > target*calAdaptBand || width*calAdaptBand < target {
			width = target
		}
	}
	if nb != len(cq.b) || width != cq.width {
		cq.rebuild(nb, width)
	}
}

// rebuild re-places every live timer into a ring of nb buckets of the
// given width. The collection buffer and, whenever its capacity holds nb
// buckets, the ring itself are reused, so adaptation in steady state does
// not allocate, nor does a ring that shrank and grows back.
func (cq *calQueue) rebuild(nb int, width Time) {
	if nb < calMinBuckets {
		nb = calMinBuckets
	}
	if !(width > 0) {
		width = calDefaultWidth
	}
	all := cq.scratch
	if cap(all) < cq.n {
		all = make([]*Timer, 0, cq.n+cq.n/2)
	}
	all = all[:0]
	for i := range cq.b {
		for tm := cq.b[i].head; tm != nil; {
			next := tm.next
			tm.next, tm.prev = nil, nil
			all = append(all, tm)
			tm = next
		}
		cq.b[i] = calBucket{}
	}
	for j := cq.ohead; j < len(cq.overflow); j++ {
		all = append(all, cq.overflow[j])
		cq.overflow[j] = nil
	}
	cq.overflow = cq.overflow[:0]
	cq.ohead = 0
	if nb != len(cq.b) {
		cq.resize(nb)
	}
	cq.width = width
	cq.invWidth = 1 / width
	minAt := math.Inf(1)
	for _, tm := range all {
		if tm.at < minAt {
			minAt = tm.at
		}
	}
	if len(all) > 0 {
		if x := minAt * cq.invWidth; x < float64(1<<52) {
			cq.curEpoch = int64(x)
		} else {
			cq.curEpoch = 0
		}
	}
	for _, tm := range all {
		cq.place(tm)
	}
	clear(all)
	cq.scratch = all[:0]
}
