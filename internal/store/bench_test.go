package store_test

import (
	"fmt"
	"testing"

	"slowcc/internal/obs"
	"slowcc/internal/store"
)

// matrixShapedStore returns a checkpointed store the size a cold
// default matrix leaves: 294 entries, each with a small result and a
// 50-counter telemetry snapshot.
func matrixShapedStore(b *testing.B) string {
	b.Helper()
	dir := b.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 294; i++ {
		st := &obs.CellStats{Cell: i, Counters: map[string]int64{}, Digest: uint64(i) * 0x9e3779b97f4a7c15, Events: 150000}
		for c := 0; c < 50; c++ {
			st.Counters[fmt.Sprintf("link.fwd%d.counter_%02d", c%3, c)] = int64(i*1000 + c)
		}
		e := store.Entry{Key: fmt.Sprintf("%064x", i), Index: i, Attempts: 1,
			Result: []byte(`{"Topology":"dumbbell","Condition":"static","A":"TCP(1/2)","B":"TFRC(8)","AMbps":4.71,"BMbps":4.52,"Ratio":1.04,"Jain":0.99,"SmoothA":0.21,"SmoothB":0.08,"Utilization":0.97}`),
			Stats:  encodeStats(b, st)}
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
