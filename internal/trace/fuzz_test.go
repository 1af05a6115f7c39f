package trace

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// FuzzReadTSV feeds arbitrary bytes to the trace reader. Whatever the
// document holds, ReadTSV must not panic and must not allocate beyond
// its line buffer plus a multiple of the input; and a document it
// accepts must survive WriteTSV: the rewritten trace parses to the same
// events, and writes the same bytes again.
func FuzzReadTSV(f *testing.F) {
	f.Add([]byte("t\top\tflow\tkind\tseq\tsize\thop\n0.250000\tsend\t1\t0\t0\t1000\t\n0.500000\tdrop\t2\t1\t9\t40\tlr\n"))
	f.Add([]byte("t\top\tflow\tkind\tseq\tsize\n1.500000\tsend\t3\t0\t42\t1000\n")) // six columns, no hop: rejected
	f.Add([]byte("t\top\tflow\tkind\tseq\tsize\thop\n"))

	f.Fuzz(func(t *testing.T, doc []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		evs, err := ReadTSV(bytes.NewReader(doc))
		runtime.ReadMemStats(&m1)
		// ReadTSV's scanner buffer is 1 MiB whatever it is given.
		if limit := uint64(2<<20 + 512*len(doc)); m1.TotalAlloc-m0.TotalAlloc > limit {
			t.Fatalf("ReadTSV allocated %d bytes for %d bytes of input", m1.TotalAlloc-m0.TotalAlloc, len(doc))
		}
		if err != nil {
			return
		}
		for _, ev := range evs {
			// The one event a line-based file cannot carry: the reader
			// takes a trailing \r for part of the line ending.
			if strings.HasSuffix(ev.Hop, "\r") {
				return
			}
		}

		rewrite := func(evs []Event) []byte {
			var r Recorder
			for _, ev := range evs {
				r.Record(ev)
			}
			var buf bytes.Buffer
			if err := r.WriteTSV(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		// WriteTSV rounds T to the microsecond, so the first rewrite is
		// the normal form; from there the round trip is exact.
		first := rewrite(evs)
		again, err := ReadTSV(bytes.NewReader(first))
		if err != nil || len(again) != len(evs) {
			t.Fatalf("rewritten trace: %d events, %v; want %d\n%s", len(again), err, len(evs), first)
		}
		for i, ev := range again {
			ev.T = evs[i].T
			if ev != evs[i] {
				t.Fatalf("event %d changed beyond its timestamp: %+v, was %+v", i, again[i], evs[i])
			}
		}
		if second := rewrite(again); !bytes.Equal(second, first) {
			t.Fatalf("the round trip is not stable:\n%s\nthen\n%s", first, second)
		}
	})
}
