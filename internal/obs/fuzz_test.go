package obs

import (
	"bytes"
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
