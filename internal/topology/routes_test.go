package topology

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"slowcc/internal/netem"
	"slowcc/internal/sim"
)

func TestRoutesTable(t *testing.T) {
	// Both ends of the first page, the first id past it, the cross,
	// reverse and CBR clumps, a flash crowd's first id, the last legal id.
	ids := []int{0, 1, 63, 64, 899, 990, 10000, maxFlowID - 1}
	var r routes
	want := map[int]*arrival{}
	for _, id := range ids {
		want[id] = &arrival{}
		r.set(id, want[id])
	}
	for _, id := range ids {
		if got := r.get(id); got != netem.Handler(want[id]) {
			t.Errorf("get(%d) = %v, want the handler registered there", id, got)
		}
	}
	// Ids nobody registered: on a populated page, on a directory slot with
	// no page, past the directory, negative, beyond anything indexable.
	for _, id := range []int{2, 62, 65, 127, 128, 898, 900, 991, 9999, 10001, maxFlowID - 2,
		maxFlowID, -1, 1 << 40, math.MinInt, math.MaxInt} {
		if got := r.get(id); got != nil {
			t.Errorf("get(%d) = %v, want nil (unknown)", id, got)
		}
	}
	// Memory follows the populated pages: six of them for eight ids, in a
	// directory of 16384 slots.
	pages := 0
	for _, p := range r.pages {
		if p != nil {
			pages++
		}
	}
	if pages != 6 {
		t.Errorf("%d pages populated, want 6 (0, 1, 14, 15, 156, 16383)", pages)
	}

	// Re-registration overwrites (PathFwd refuses duplicates before they
	// get here; the table itself is last-writer-wins).
	again := &arrival{}
	r.set(990, again)
	if got := r.get(990); got != netem.Handler(again) {
		t.Errorf("get(990) after re-registration = %v, want the second handler", got)
	}
	if got := r.get(899); got != netem.Handler(want[899]) {
		t.Errorf("re-registering 990 disturbed 899: %v", got)
	}

	for _, id := range []int{-1, maxFlowID} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("set(%d) did not panic", id)
				}
			}()
			r.set(id, again)
		}()
	}
}

// bytesAllocated is the heap fn allocates, in bytes: TotalAlloc only
// grows, so the delta needs no GC fence.
func bytesAllocated(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// A demux costs what its populated pages cost. The dense table this
// replaced paid 16 B for every id up to the largest: 16 KB for a matrix
// cell's ids, 176 KB for fig6's crowd, per demux.
func TestRoutesMemoryFollowsPopulatedPages(t *testing.T) {
	crowd := make([]int, 1000)
	for i := range crowd {
		crowd[i] = 10000 + i
	}
	h := &arrival{}
	for _, tc := range []struct {
		name    string
		ids     []int
		ceiling uint64
	}{
		// Three 1 KB pages and a 16-slot directory grown twice.
		{"matrix cell", []int{1, 2, 900, 990}, 4 << 10},
		// Sixteen pages and a directory regrown once per page.
		{"flash crowd", crowd, 48 << 10},
	} {
		var r routes
		got := bytesAllocated(func() {
			for _, id := range tc.ids {
				r.set(id, h)
			}
		})
		if got > tc.ceiling {
			t.Errorf("%s: registering allocated %d B, ceiling %d B", tc.name, got, tc.ceiling)
		}
	}
}

// The lazily seeded source is the eager one's stream, bit for bit, from
// whichever method draws first — and so is one whose first draw reseeds
// a generator a released net parked.
func TestLazySourceMatchesEagerStream(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	same := func(seed int64, l *lazySource) {
		t.Helper()
		lazy, eager := rand.New(l), rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			switch i % 4 {
			case 0:
				if a, b := lazy.Float64(), eager.Float64(); a != b {
					t.Fatalf("seed %d draw %d: Float64 %v vs %v", seed, i, a, b)
				}
			case 1:
				if a, b := lazy.Uint64(), eager.Uint64(); a != b {
					t.Fatalf("seed %d draw %d: Uint64 %v vs %v", seed, i, a, b)
				}
			case 2:
				if a, b := lazy.Intn(1000), eager.Intn(1000); a != b {
					t.Fatalf("seed %d draw %d: Intn %v vs %v", seed, i, a, b)
				}
			default:
				if a, b := lazy.ExpFloat64(), eager.ExpFloat64(); a != b {
					t.Fatalf("seed %d draw %d: ExpFloat64 %v vs %v", seed, i, a, b)
				}
			}
		}
		// Reseeding restarts the stream.
		lazy.Seed(seed + 1)
		eager.Seed(seed + 1)
		if a, b := lazy.Int63(), eager.Int63(); a != b {
			t.Fatalf("seed %d: reseeded Int63 %v vs %v", seed, a, b)
		}
	}
	for _, seed := range []int64{1, 2, -7995527694508729151} {
		drawn := &lazySource{seed: seed}
		same(seed, drawn)
		gen := drawn.src
		drawn.park()
		next := &lazySource{seed: seed ^ 0x5eed}
		if next.source() != gen && !raceDetector() { // which drops a random quarter of what sync.Pool is given
			t.Fatalf("seed %d: the next first draw built a generator instead of reseeding the parked one", seed)
		}
		same(seed^0x5eed, next)
	}
}

// raceDetector reports whether the test binary was built with -race.
func raceDetector() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// A hop's RED queue drops exactly the packets a queue on the eagerly
// seeded generator drops: laziness moves when the state is built, never
// what is drawn from it.
func TestREDDropSequenceUnchangedByLazySeeding(t *testing.T) {
	hop := Hop{Rate: 10e6}
	hop.fill()
	const bdp, pktSize = 62.5, 1000
	for _, seed := range []int64{1, 2, 3} {
		lazy := buildQueue(hop, bdp, pktSize, &lazySource{seed: seed}).(*netem.RED)
		eager := netem.NewRED(lazy.MinThresh, lazy.MaxThresh, lazy.Cap, lazy.MeanPktTime,
			rand.New(rand.NewSource(seed)))
		// Overload in bursts with partial drains, so the average crosses
		// the early-drop band both ways.
		var now sim.Time
		for i := 0; i < 20000; i++ {
			now += 0.0004
			a := lazy.Enqueue(&netem.Packet{Seq: int64(i), Size: pktSize}, now)
			b := eager.Enqueue(&netem.Packet{Seq: int64(i), Size: pktSize}, now)
			if a != b {
				t.Fatalf("seed %d packet %d: lazy accepted=%v, eager accepted=%v", seed, i, a, b)
			}
			if i%5 < 2 || i%4000 > 3000 {
				lazy.Dequeue(now)
				eager.Dequeue(now)
			}
		}
		if lazy.EarlyDrops == 0 || lazy.EarlyDrops != eager.EarlyDrops {
			t.Fatalf("seed %d: early drops lazy %d, eager %d, want equal and non-zero",
				seed, lazy.EarlyDrops, eager.EarlyDrops)
		}
	}
}
