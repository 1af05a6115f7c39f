package export_test

import (
	"bytes"
	"os"
	"runtime"
	"testing"

	"slowcc/internal/obs/export"
)

// FuzzParseText feeds arbitrary bytes to the strict exposition parser
// the tests and the benchmark hold /metrics to. Whatever the document
// holds, ParseText must not panic and must not allocate beyond its line
// buffer plus a multiple of the input; and a document it accepts,
// Validate accepts too, with the same family count.
func FuzzParseText(f *testing.F) {
	prom, err := os.ReadFile("testdata/trace.prom")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(prom)
	f.Add([]byte("# TYPE lat histogram\nlat_bucket{le=\"0.1\"} 1\nlat_sum 0.05\nlat_count 1\n")) // no +Inf bucket

	f.Fuzz(func(t *testing.T, doc []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		fams, err := export.ParseText(bytes.NewReader(doc))
		runtime.ReadMemStats(&m1)
		if limit := uint64(2<<20 + 64*len(doc)); m1.TotalAlloc-m0.TotalAlloc > limit {
			t.Fatalf("ParseText allocated %d bytes for %d bytes of input", m1.TotalAlloc-m0.TotalAlloc, len(doc))
		}
		if err != nil {
			return
		}
		n, _, err := export.Validate(bytes.NewReader(doc))
		if err != nil || n != len(fams) {
			t.Fatalf("ParseText accepted %d families, Validate says %d, %v", len(fams), n, err)
		}
	})
}
