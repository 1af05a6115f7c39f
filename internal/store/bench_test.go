package store_test

import (
	"fmt"
	"testing"

	"slowcc/internal/obs"
	"slowcc/internal/store"
)

// matrixCell has the shape of a matrix sweep's cell result.
type matrixCell struct {
	Topology, Condition, A, B                                string
	AMbps, BMbps, Ratio, Jain, SmoothA, SmoothB, Utilization float64
	Degraded                                                 bool
}

var matrixResult = matrixCell{"dumbbell", "static", "TCP(1/2)", "TFRC(8)", 4.71, 4.52, 1.04, 0.99, 0.21, 0.08, 0.97, false}

// matrixStats is a cell's telemetry the size a matrix cell records:
// 50 counters.
func matrixStats(i int) *obs.CellStats {
	st := &obs.CellStats{Counters: map[string]int64{}, Digest: uint64(i) * 0x9e3779b97f4a7c15, Events: 150000}
	for c := 0; c < 50; c++ {
		st.Counters[fmt.Sprintf("link.fwd%d.counter_%02d", c%3, c)] = int64(i*1000 + c)
	}
	return st
}

// matrixShapedStore returns a checkpointed store the size a cold
// default matrix leaves: 294 entries, each with a small result and a
// 50-counter telemetry snapshot.
func matrixShapedStore(b testing.TB) string {
	b.Helper()
	dir := b.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 294; i++ {
		st := matrixStats(i)
		e := store.Entry{Key: fmt.Sprintf("%064x", i), Index: i, Attempts: 1,
			Result: encode(b, matrixResult), Stats: encodeStats(b, st)}
		if err := s.Put(e); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// BenchmarkOpenSnapshot is the read a warm replay starts with.
func BenchmarkOpenSnapshot(b *testing.B) {
	dir := matrixShapedStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := store.OpenReadOnly(dir)
		if err != nil || s.Len() != 294 {
			b.Fatalf("%d entries, %v", s.Len(), err)
		}
	}
}

// BenchmarkWarmClose is the Close a warm replay ends with: every entry
// read, none written. Its untimed Open dwarfs the timed Close, so the
// default -benchtime grows b.N into minutes of setup; give it a count
// (-benchtime=200x).
func BenchmarkWarmClose(b *testing.B) {
	dir := matrixShapedStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range s.Entries() {
			s.Get(e.Key)
		}
		b.StartTimer()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeResult is what a replayed matrix cell pays to decode
// its result.
func BenchmarkDecodeResult(b *testing.B) {
	blob := encode(b, matrixResult)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := store.Decode[matrixCell](blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeStats is what a replayed matrix cell pays to decode its
// telemetry when a sink is attached.
func BenchmarkDecodeStats(b *testing.B) {
	blob := encodeStats(b, matrixStats(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := store.Decode[obs.CellStats](blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeStats is what a stored matrix cell pays to encode its
// telemetry.
func BenchmarkEncodeStats(b *testing.B) {
	st := *matrixStats(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := store.Encode(st); err != nil {
			b.Fatal(err)
		}
	}
}
