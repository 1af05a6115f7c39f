package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"slowcc/internal/exp"
	"slowcc/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden report")

// TestReportGolden drives the real slowcctrace code path — a probed
// TraceRun, its manifest and probe TSV written to disk, both read back
// through the same functions main uses — and pins the rendered report
// against testdata/report.golden. Wall time is the one nondeterministic
// manifest field, so it is zeroed before sealing; everything else,
// digests included, is reproducible from the seed.
//
// Regenerate after an intentional format change with:
//
//	go test ./cmd/slowccreport -run TestReportGolden -update
func TestReportGolden(t *testing.T) {
	dir := t.TempDir()
	manifestPath := filepath.Join(dir, "run.json")
	probesPath := filepath.Join(dir, "run.probes.tsv")

	run := exp.NewTraceRun(exp.TraceRunConfig{
		Seed:          1,
		Rate:          10e6,
		Duration:      5,
		Algos:         []exp.AlgoSpec{exp.TCPAlgo(0.5), exp.TFRCAlgo(exp.TFRCOpts{K: 8, HistoryDiscounting: true})},
		ProbeInterval: 0.5,
	})
	run.Run()

	var tsv bytes.Buffer
	if err := run.Sampler.WriteTSV(&tsv); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(probesPath, tsv.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	m := run.Manifest("slowcctrace")
	m.Outputs["probes"] = obs.DigestBytes(tsv.Bytes())
	m.WallTimeS = 0 // the only volatile field; zeroed for reproducibility
	if err := m.WriteFile(manifestPath); err != nil {
		t.Fatal(err)
	}

	// Read back exactly as main does: digest-verified manifest, parsed
	// probe TSV, rendered side by side.
	got, err := obs.ReadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(probesPath)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ReadSamplesTSV(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("probed run produced no samples")
	}
	report := obs.RenderReport([]*obs.Manifest{got}, [][]obs.Sample{samples})

	goldenPath := filepath.Join("testdata", "report.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(report), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	if report != string(golden) {
		t.Fatalf("report differs from %s (re-run with -update after intentional changes)\ngot:\n%s\nwant:\n%s",
			goldenPath, report, golden)
	}
}

// TestJourneyReportGolden pins the report rendering for a
// journey-enabled run: the manifest carries per-hop queue-delay,
// drop-burst, and per-flow RTT histograms, and the report renders them
// as an aligned table after the manifest columns. Regenerate with
// -update after intentional format changes.
func TestJourneyReportGolden(t *testing.T) {
	dir := t.TempDir()
	manifestPath := filepath.Join(dir, "run.json")

	run := exp.NewTraceRun(exp.TraceRunConfig{
		Seed:     1,
		Rate:     10e6,
		Duration: 5,
		Algos:    []exp.AlgoSpec{exp.TCPAlgo(0.5), exp.TFRCAlgo(exp.TFRCOpts{K: 8, HistoryDiscounting: true})},
		Journeys: true,
	})
	run.Run()

	m := run.Manifest("slowcctrace")
	m.WallTimeS = 0
	if err := m.WriteFile(manifestPath); err != nil {
		t.Fatal(err)
	}
	got, err := obs.ReadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Histograms) == 0 {
		t.Fatal("journey run manifest carries no histograms")
	}
	report := obs.RenderReport([]*obs.Manifest{got}, nil)

	goldenPath := filepath.Join("testdata", "journey_report.golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(report), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	if report != string(golden) {
		t.Fatalf("journey report differs from %s (re-run with -update after intentional changes)\ngot:\n%s\nwant:\n%s",
			goldenPath, report, golden)
	}
}
