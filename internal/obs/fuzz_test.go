package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"testing"
)

// FuzzReadManifest feeds arbitrary bytes to the manifest reader behind
// slowccreport. Whatever the file holds, it must not panic and must not
// allocate beyond a fixed allowance plus a multiple of the input; a
// document it accepts is of this schema and a fixed point of Encode, so
// what a report reads is what a writer would seal.
func FuzzReadManifest(f *testing.F) {
	m := NewManifest("slowcctrace", 1)
	fillManifest(m)
	f.Add(m.Encode())
	f.Add([]byte("null"))
	var tl bytes.Buffer
	timeline := NewTimeline()
	timeline.Span("running", "cell 0", 0, 0, 0, 1, map[string]any{"index": 0})
	if err := timeline.WriteJSON(&tl); err != nil {
		f.Fatal(err)
	}
	f.Add(tl.Bytes())

	f.Fuzz(func(t *testing.T, doc []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		m, err := parseManifest(doc)
		runtime.ReadMemStats(&m1)
		if limit := uint64(2<<20 + 64*len(doc)); m1.TotalAlloc-m0.TotalAlloc > limit {
			t.Fatalf("parseManifest allocated %d bytes for %d bytes of input", m1.TotalAlloc-m0.TotalAlloc, len(doc))
		}
		if err != nil {
			return
		}
		if m.Schema != ManifestSchema {
			t.Fatalf("accepted schema %q", m.Schema)
		}
		sealed := m.Encode()
		back, err := parseManifest(sealed)
		if err != nil {
			t.Fatalf("Encode of an accepted manifest does not read back: %v\n%s", err, sealed)
		}
		if again := back.Encode(); !bytes.Equal(again, sealed) || back.Digest != m.Digest {
			t.Fatalf("Encode does not read back equal:\n%s\nvs\n%s", sealed, again)
		}
	})
}

// FuzzValidateTimeline feeds arbitrary bytes to the timeline reader the
// smoke tests hold each written timeline to. It must not panic, must allocate no more
// than a fixed allowance plus a multiple of the input, and a document it
// accepts must survive being written again: its events, decoded and
// written through a Timeline, validate to the same count.
func FuzzValidateTimeline(f *testing.F) {
	// A sweep as the supervisor publishes it: one cell done, one poisoned
	// cell degraded, one served from the store.
	sweep := NewTimeline()
	for _, ev := range []SweepEvent{
		{Kind: SweepQueued, Cell: 0, AtMS: 1, WaitMS: 1},
		{Kind: SweepRunning, Cell: 0, AtMS: 1},
		{Kind: SweepDone, Cell: 0, Outcome: "ok", AtMS: 3, DurMS: 2},
		{Kind: SweepQueued, Cell: 1, Worker: 1, AtMS: 1.5, WaitMS: 1.5},
		{Kind: SweepRunning, Cell: 1, Worker: 1, AtMS: 1.5},
		{Kind: SweepDegraded, Cell: 1, Worker: 1, Outcome: "deadline", AtMS: 2.5, DurMS: 1},
		{Kind: SweepQueued, Cell: 2, AtMS: 3, WaitMS: 3},
		{Kind: SweepCached, Cell: 2, Outcome: "cached", Key: "6a7af80a", AtMS: 3},
	} {
		sweep.SweepEvent(ev)
	}
	var doc bytes.Buffer
	if err := sweep.WriteJSON(&doc); err != nil {
		f.Fatal(err)
	}
	if _, err := ValidateTimeline(doc.Bytes()); err != nil {
		f.Fatalf("the sweep renderer's own timeline does not validate: %v", err)
	}
	f.Add(doc.Bytes())
	// Written by slowcctrace -flow tcp:0.5 -dur 0.05 -rate 1e6 -journeys
	// -timeline: one lane per hop, one row per flow.
	journeys, err := os.ReadFile("testdata/journey_timeline.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(journeys)
	f.Add([]byte("{}"))
	f.Add([]byte("null"))

	f.Fuzz(func(t *testing.T, doc []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		n, err := ValidateTimeline(doc)
		runtime.ReadMemStats(&m1)
		if limit := uint64(2<<20 + 64*len(doc)); m1.TotalAlloc-m0.TotalAlloc > limit {
			t.Fatalf("ValidateTimeline allocated %d bytes for %d bytes of input", m1.TotalAlloc-m0.TotalAlloc, len(doc))
		}
		if err != nil {
			return
		}
		var in struct{ TraceEvents []TraceEvent }
		if err := json.Unmarshal(doc, &in); err != nil {
			t.Fatalf("accepted a document its events do not decode from: %v", err)
		}
		tl := NewTimeline()
		tl.events = in.TraceEvents
		var out bytes.Buffer
		if err := tl.WriteJSON(&out); err != nil {
			t.Fatalf("accepted events do not write: %v", err)
		}
		again, err := ValidateTimeline(out.Bytes())
		if err != nil || again != n {
			t.Fatalf("rewritten timeline validates to %d events (%v), the original to %d:\n%s", again, err, n, out.Bytes())
		}
	})
}

// FuzzReadSamplesTSV feeds arbitrary bytes to the probe-TSV reader
// behind slowccreport -probes. It must not panic, must allocate no more
// than a fixed allowance plus a multiple of the input, and every series
// it accepts must render through RenderReport, as the report does.
func FuzzReadSamplesTSV(f *testing.F) {
	var tsv bytes.Buffer
	s := &Sampler{samples: []Sample{
		{T: 0.1, Probe: "tcp-1", Var: "cwnd", Value: 10},
		{T: 0.2, Probe: "tcp-1", Var: "cwnd", Value: 12.5},
		{T: 0.2, Probe: "tfrc-2", Var: "rate", Value: 1e6},
	}}
	if err := s.WriteTSV(&tsv); err != nil {
		f.Fatal(err)
	}
	f.Add(tsv.Bytes())
	f.Add([]byte("t\tprobe\tvar\tvalue\n"))
	f.Add([]byte("t\tprobe\tvar\tvalue\nNaN\tp\tv\t-Inf\n\n"))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, doc []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		samples, err := ReadSamplesTSV(bytes.NewReader(doc))
		runtime.ReadMemStats(&m1)
		if limit := uint64(2<<20 + 64*len(doc)); m1.TotalAlloc-m0.TotalAlloc > limit {
			t.Fatalf("ReadSamplesTSV allocated %d bytes for %d bytes of input", m1.TotalAlloc-m0.TotalAlloc, len(doc))
		}
		if err != nil {
			return
		}
		RenderReport([]*Manifest{NewManifest("slowcctrace", 1)}, [][]Sample{samples})
	})
}
