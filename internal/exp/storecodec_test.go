package exp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log/slog"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"slowcc/internal/metrics"
	"slowcc/internal/obs"
	"slowcc/internal/store"
)

var (
	nan     = math.NaN()
	inf     = math.Inf(1)
	negZero = math.Copysign(0, -1)
)

// Filled values of the result types the roster sweeps store: NaN, ±Inf
// and -0 floats, nil and empty slices and maps, negative map keys and
// the integer extremes.
var (
	filledMatrixCell = MatrixCell{Topology: "dumbbell", Condition: "static", A: "TCP(1/2)",
		AMbps: nan, BMbps: inf, Ratio: -inf, Jain: negZero, SmoothA: math.SmallestNonzeroFloat64,
		SmoothB: -1.5, Utilization: math.MaxFloat64, Degraded: true}
	filledFig13Point = Fig13Point{Family: "TFRC", Gamma: math.MaxInt64,
		F: map[int]float64{math.MinInt64: -inf, -3: nan, 0: negZero, 20: 0.65, math.MaxInt64: inf}}
	filledStabilization = StabilizationResult{Algo: "SQRT(1/2)", Steady: nan,
		Stab:      metrics.Stabilization{TimeRTTs: inf, Cost: negZero, AvgLoss: -1, Stabilized: true},
		LossTrace: []TimePoint{{T: negZero, V: nan}, {T: inf, V: -inf}}}
	filledCellStats = obs.CellStats{Counters: map[string]int64{"": -1, "a<b&c": math.MinInt64, "link.lr.drops": math.MaxInt64},
		Digest: math.MaxUint64, DigestEvents: 1}
)

// sameBits is reflect.DeepEqual with floats compared by their bits, so
// NaN equals itself and -0 differs from 0.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		return a.IsNil() == b.IsNil() && (a.IsNil() || sameBits(a.Elem(), b.Elem()))
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for it := a.MapRange(); it.Next(); {
			if bv := b.MapIndex(it.Key()); !bv.IsValid() || !sameBits(it.Value(), bv) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Interface() == b.Interface()
	}
}

// roundTrips checks that T is codable and that its zero value and each
// filled value decode to a bit-equal value that re-encodes to the same
// bytes.
func roundTrips[T any](filled ...T) func(t *testing.T) {
	return func(t *testing.T) {
		if !store.Codable(reflect.TypeFor[T]()) {
			t.Fatalf("%v is not codable: its sweep would run unkeyed", reflect.TypeFor[T]())
		}
		var zero T
		for _, v := range append([]T{zero}, filled...) {
			b, err := store.Encode(v)
			if err != nil {
				t.Fatalf("encoding %+v: %v", v, err)
			}
			got, err := store.Decode[T](b)
			if err != nil {
				t.Fatalf("decoding %+v: %v", v, err)
			}
			if !sameBits(reflect.ValueOf(got), reflect.ValueOf(v)) {
				t.Fatalf("round trip gave %+v, want %+v", got, v)
			}
			if again, _ := store.Encode(got); !bytes.Equal(again, b) {
				t.Fatalf("%+v re-encodes to %x, was %x", got, again, b)
			}
		}
	}
}

// Every result type a roster sweep stores, and the telemetry beside it,
// survives the store bit for bit.
func TestStoredTypesRoundTrip(t *testing.T) {
	t.Parallel()
	for name, run := range map[string]func(*testing.T){
		"MatrixCell":          roundTrips(filledMatrixCell),
		"Fig13Point":          roundTrips(filledFig13Point, Fig13Point{F: map[int]float64{}}),
		"Fig45Point":          roundTrips(Fig45Point{Family: "TCP", Gamma: -2, Result: filledStabilization}),
		"StabilizationResult": roundTrips(filledStabilization, StabilizationResult{LossTrace: []TimePoint{}}),
		"OscillationPoint": roundTrips(OscillationPoint{Algo: "RAP", Period: 0.2, PerFlow: []float64{nan, negZero, inf},
			Throughput: -inf, DropRate: 1}, OscillationPoint{PerFlow: []float64{}}),
		"SmoothnessResult": roundTrips(SmoothnessResult{Algo: "TEAR", SendTrace: []TimePoint{{T: 1, V: nan}},
			Smooth: metrics.Smoothness{MinRatio: nan, MaxRatio: inf, CoV: negZero}, SmoothBins: metrics.Smoothness{CoV: -inf},
			ThroughputMbps: -inf, DropCount: math.MaxInt64}, SmoothnessResult{SendTrace: []TimePoint{}}),
		"Fig6Result": roundTrips(Fig6Result{Background: "TFRC(6)", CrowdRate: []TimePoint{},
			BackgroundRate: []TimePoint{{T: negZero, V: inf}}, CrowdCompleted: math.MaxInt64, CrowdBytes: math.MinInt64,
			CrowdMeanCompletion: nan}),
		"FairnessPoint": roundTrips(FairnessPoint{Period: inf, APer: []float64{nan, -inf}, BPer: []float64{},
			AMean: negZero, BMean: 1, AMeanCI: nan, BMeanCI: math.MaxFloat64, Utilization: -1}),
		"OutageResult": roundTrips(OutageResult{Background: "TCP(1/2)", BackgroundRate: []TimePoint{{T: 3, V: nan}},
			CrowdRate: []TimePoint{}, RecoveryTime: -1, OutageDrops: math.MaxInt64, Transitions: math.MinInt64,
			CrowdCompleted: -1, CrowdBytes: 1 << 40, CrowdMeanCompletion: negZero}),
		"QueueDynamicsResult": roundTrips(QueueDynamicsResult{Algo: "IIAD",
			Queue: metrics.Summary{N: math.MaxInt64, Mean: nan, StdDev: inf, Min: negZero, Max: -inf, CI95: 2},
			CoV:   negZero, DropRate: nan, Utilization: inf}),
		"RTTFairnessResult": roundTrips(RTTFairnessResult{Algo: "TCP(1/8)", ShortMbps: nan, LongMbps: negZero, Advantage: inf}),
		"convergenceTrial":  roundTrips(convergenceTrial{Time: negZero, OK: true}, convergenceTrial{Time: nan}),
		"float64":           roundTrips(nan, negZero, inf, -inf, math.SmallestNonzeroFloat64),
		"obs.CellStats":     roundTrips(filledCellStats, obs.CellStats{Counters: map[string]int64{}}),
	} {
		t.Run(name, run)
	}
}

// storedList is a recursive result type: codable, and bounded in depth.
type storedList struct {
	V    int
	Next *storedList
}

func listOf(n int) *storedList {
	var l *storedList
	for i := 0; i < n; i++ {
		l = &storedList{V: i, Next: l}
	}
	return l
}

// Codable refuses exactly the types whose values the encoding would lose
// or cannot write, and accepts the rest, a recursive type included.
func TestCodableGate(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		t    reflect.Type
		want bool
	}{
		{reflect.TypeFor[lossyResult](), false},
		{reflect.TypeFor[*lossyResult](), false},
		{reflect.TypeFor[map[string][]lossyResult](), false},
		{reflect.TypeFor[struct{ V any }](), false},
		{reflect.TypeFor[struct{ F func() }](), false},
		{reflect.TypeFor[chan int](), false},
		{reflect.TypeFor[complex128](), false},
		{reflect.TypeFor[map[float64]int](), false},
		{reflect.TypeFor[map[[2]int]int](), false},
		{reflect.TypeFor[uintptr](), false},
		{reflect.TypeFor[unsafe.Pointer](), false},
		{reflect.TypeFor[any](), false},
		{reflect.TypeFor[storedList](), true},
		{reflect.TypeFor[map[uint8][3]*int16](), true},
		{reflect.TypeFor[struct {
			A float32
			B []byte
			C map[int32]string
		}](), true},
	} {
		if got := store.Codable(tc.t); got != tc.want {
			t.Errorf("Codable(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
	roundTrips(storedList{V: -1, Next: listOf(3)})(t)
	if _, err := store.Encode(listOf(1000)); err == nil {
		t.Fatal("a 1000-deep list encoded: the decoder would refuse it")
	}
}

// A recursive value nested deeper than the decoder accepts does not
// encode, so commitCell logs it as not storable and stores nothing; the
// sweep still returns it.
func TestUnstorableResultIsLoggedNotStored(t *testing.T) {
	t.Parallel()
	sw, st := storeSweep(t)
	var buf bytes.Buffer
	sw.Replay, sw.Logger = true, slog.New(slog.NewTextHandler(&buf, nil))
	out := supervisedMapKeyed(sw, 2, func(i int) string { return fmt.Sprint("deep-", i) }, func(c *Cell) *storedList {
		return listOf(1000 * c.Index())
	})
	if st.Len() != 1 || !strings.Contains(buf.String(), "sweep cell not storable") {
		t.Fatalf("store holds %d entries, log %q; want the empty list only, and the deep one logged", st.Len(), buf.String())
	}
	if out[1] == nil || out[1].V != 999 {
		t.Fatalf("sweep lost the unstorable result: %+v", out[1])
	}
}

// A cell that does not reach the store is not lost silently: with no
// logger attached, StoreErr still names the first, whether its result
// did not encode or the store refused the write; the sweep still
// returns every result.
func TestStoreFailureIsKeptWithoutALogger(t *testing.T) {
	t.Parallel()
	sw, _ := storeSweep(t)
	deep := supervisedMapKeyed(sw, 2, func(i int) string { return fmt.Sprint("deep-", i) }, func(c *Cell) *storedList {
		return listOf(1000 * c.Index())
	})
	if err := sw.StoreErr(); err == nil || !strings.Contains(err.Error(), "not storable: cell 1") {
		t.Errorf("StoreErr after an unstorable cell: %v", err)
	}

	sw, st := storeSweep(t)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	closed := supervisedMapKeyed(sw, 2, func(i int) string { return fmt.Sprint("closed-", i) }, func(c *Cell) int {
		return c.Index() + 1
	})
	if err := sw.StoreErr(); err == nil || !strings.Contains(err.Error(), "write failed: cell") {
		t.Errorf("StoreErr after a refused write: %v", err)
	}
	if deep[1] == nil || deep[1].V != 999 || closed[0] != 1 || closed[1] != 2 {
		t.Fatalf("sweep lost results the store refused: %+v %v", deep[1], closed)
	}
}

type (
	shapeAB  struct{ A, B float64 }
	shapeA   struct{ A float64 }
	shapeABC struct{ A, B, C float64 }
	shapeBA  struct{ B, A float64 }
)

// A stored result decodes only into the type shape that wrote it: a
// field dropped, added or moved since is refused, never filled with a
// zero, dropped, or read from its neighbour's bytes.
func TestStoredResultOfAnotherShapeIsRefused(t *testing.T) {
	t.Parallel()
	sw, st := storeSweep(t)
	commitCell(sw, "ab", 0, shapeAB{1, 2}, obs.CellStats{}, nil)
	e, ok := st.Get("ab")
	if !ok {
		t.Fatal("committed cell not served")
	}
	if v, ok := decodeStored[shapeAB](e); !ok || v != (shapeAB{1, 2}) {
		t.Fatalf("own shape: %+v, %v", v, ok)
	}
	if v, ok := decodeStored[shapeA](e); ok {
		t.Errorf("decoded into %T, dropping B: %+v", v, v)
	}
	if v, ok := decodeStored[shapeABC](e); ok {
		t.Errorf("decoded into %T, C zero: %+v", v, v)
	}
	if v, ok := decodeStored[shapeBA](e); ok {
		t.Errorf("decoded into %T: %+v", v, v)
	}
}

// The same, end to end: a sweep whose result type changed shape finds
// every cell in the store, counts each corrupt, recomputes it, and
// returns what a cold run does.
func TestStoredResultOfAnotherShapeIsRecomputed(t *testing.T) {
	t.Parallel()
	key := func(i int) string { return fmt.Sprint("shape-", i) }
	for name, sweep := range map[string]func(sw *Sweep) string{
		"field dropped": func(sw *Sweep) string {
			return fmt.Sprint(supervisedMapKeyed(sw, 3, key, func(c *Cell) shapeA { return shapeA{float64(c.Index())} }))
		},
		"field added": func(sw *Sweep) string {
			return fmt.Sprint(supervisedMapKeyed(sw, 3, key, func(c *Cell) shapeABC {
				return shapeABC{float64(c.Index()), 0.5, 0.25}
			}))
		},
		"fields swapped": func(sw *Sweep) string {
			return fmt.Sprint(supervisedMapKeyed(sw, 3, key, func(c *Cell) shapeBA { return shapeBA{float64(c.Index()), 0.5} }))
		},
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cold := sweep(newSweep(t))
			sw, st := storeSweep(t)
			supervisedMapKeyed(sw, 3, key, func(c *Cell) shapeAB { return shapeAB{100, 200} })
			sw.Replay = true
			if got := sweep(sw); got != cold {
				t.Fatalf("replay over old-shape entries gave %s, a cold run %s", got, cold)
			}
			if st.Hits() != 3 || st.Corrupt() != 3 {
				t.Fatalf("hits=%d corrupt=%d, want 3, 3", st.Hits(), st.Corrupt())
			}
			if again := sweep(sw); again != cold || st.Hits() != 6 || st.Corrupt() != 3 {
				t.Fatalf("second replay: %s, hits=%d corrupt=%d; want the cold output served from 3 new hits", again, st.Hits(), st.Corrupt())
			}
		})
	}
}

// FuzzDecodeValue feeds hostile bytes to the decoders of a matrix
// cell, a Figure 13 point (a map) and a cell's telemetry. None may
// panic or allocate beyond a multiple of its input, and whatever one
// accepts must re-encode to exactly the bytes it was given.
func FuzzDecodeValue(f *testing.F) {
	for _, v := range []any{MatrixCell{}, filledMatrixCell, filledFig13Point, Fig13Point{}, filledCellStats} {
		var b []byte
		var err error
		switch v := v.(type) {
		case MatrixCell:
			b, err = store.Encode(v)
		case Fig13Point:
			b, err = store.Encode(v)
		case obs.CellStats:
			b, err = store.Encode(v)
		}
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-1])
		// A fingerprint, then a length promising far more than follows.
		f.Add(binary.AppendUvarint(b[:8:8], 1<<40))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		reencodes[MatrixCell](t, b)
		reencodes[Fig13Point](t, b)
		reencodes[obs.CellStats](t, b)
		runtime.ReadMemStats(&m1)
		if limit := uint64(2<<20 + 64*len(b)); m1.TotalAlloc-m0.TotalAlloc > limit {
			t.Fatalf("decoding allocated %d bytes for %d bytes of input", m1.TotalAlloc-m0.TotalAlloc, len(b))
		}
	})
}

// reencodes decodes b as a T and, when that succeeds, checks that the
// value encodes back to b.
func reencodes[T any](t *testing.T, b []byte) {
	v, err := store.Decode[T](b)
	if err != nil {
		return
	}
	again, err := store.Encode(v)
	if err != nil || !bytes.Equal(again, b) {
		t.Fatalf("%T decoded from %x re-encodes to %x (%v)", v, b, again, err)
	}
}
