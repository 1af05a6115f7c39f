package exp

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var updateHeatmap = flag.Bool("update-heatmap", false, "rewrite heatmap golden files")

// heatmapCells is a deterministic fixture shaped like a real 3x3 sweep
// over two conditions, including a degraded cell and an asymmetric
// ratio spread.
func heatmapCells() []MatrixCell {
	mk := func(topo, cond, a, b string, ratio, jain, util float64, degraded bool) MatrixCell {
		return MatrixCell{
			Topology: topo, Condition: cond, A: a, B: b,
			AMbps: 5 * ratio / (1 + ratio), BMbps: 5 / (1 + ratio),
			Ratio: ratio, Jain: jain, SmoothA: 0.2, SmoothB: 0.3,
			Utilization: util, Degraded: degraded,
		}
	}
	var cells []MatrixCell
	algos := []string{"tcp(0.5)", "tfrc(8)", "cbr"}
	ratios := map[string]float64{
		"tcp(0.5)/tcp(0.5)": 1.0, "tcp(0.5)/tfrc(8)": 1.3, "tcp(0.5)/cbr": 0.4,
		"tfrc(8)/tcp(0.5)": 0.8, "tfrc(8)/tfrc(8)": 1.0, "tfrc(8)/cbr": 0.3,
		"cbr/tcp(0.5)": 2.6, "cbr/tfrc(8)": 3.1, "cbr/cbr": 1.0,
	}
	for _, cond := range []string{"static", "faulted"} {
		for _, a := range algos {
			for _, b := range algos {
				r := ratios[a+"/"+b]
				degraded := cond == "faulted" && a == "cbr" && b == "cbr"
				jain := 1 / (1 + (r-1)*(r-1)/4)
				cells = append(cells, mk("dumbbell", cond, a, b, r, jain, 0.9, degraded))
			}
		}
	}
	return cells
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateHeatmap {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (rerun with -update-heatmap to create)", err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestMatrixTSVHeatmapRoundTrip(t *testing.T) {
	t.Parallel()
	cells := heatmapCells()
	tsv := RenderMatrixTSV(cells)
	parsed, err := ParseMatrixTSV(strings.NewReader(tsv))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(cells) {
		t.Fatalf("parsed %d cells, want %d", len(parsed), len(cells))
	}
	// The TSV stores floats at %.6g, so the lossless round-trip property
	// is the render/parse fixpoint: re-rendering the parsed cells must
	// reproduce the artifact byte for byte.
	if RenderMatrixTSV(parsed) != tsv {
		t.Fatal("re-rendered TSV differs")
	}
	for i := range cells {
		p, c := parsed[i], cells[i]
		if p.Topology != c.Topology || p.Condition != c.Condition ||
			p.A != c.A || p.B != c.B || p.Degraded != c.Degraded {
			t.Fatalf("cell %d identity: %+v != %+v", i, p, c)
		}
	}
}

// RenderMatrixTSV writes every float as fmt's %.6g does, on the values
// where the two could part (NaN, ±Inf, −0, the exponent thresholds, the
// smallest subnormal) and on every cell of a default matrix.
func TestMatrixTSVMatchesFmt(t *testing.T) {
	t.Parallel()
	sw := newSweep(t)
	viaFmt := func(cells []MatrixCell) string {
		var sb strings.Builder
		sb.WriteString(matrixTSVHeader + "\n")
		for _, c := range cells {
			fmt.Fprintf(&sb, "%s\t%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%t\n",
				c.Topology, c.Condition, c.A, c.B,
				c.AMbps, c.BMbps, c.Ratio, c.Jain, c.SmoothA, c.SmoothB, c.Utilization, c.Degraded)
		}
		return sb.String()
	}
	var cells []MatrixCell
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		1e-7, 1e21, 5e-324, 1e-4, 1e-5, 123456, 999999.5, 1234567, 0.1 + 0.2, math.MaxFloat64, -2.5e-300} {
		cells = append(cells, MatrixCell{Topology: "t", Condition: "c", A: "a", B: "b",
			AMbps: v, BMbps: -v, Ratio: 3 * v, Jain: v / 7, SmoothA: v, SmoothB: -v / 3, Utilization: v, Degraded: i%2 == 0})
	}
	if got, want := RenderMatrixTSV(cells), viaFmt(cells); got != want {
		t.Fatalf("rendered\n%s\nfmt renders\n%s", got, want)
	}
	if testing.Short() {
		return
	}
	cells = sw.Matrix(MatrixConfig{Seed: 1, Warmup: 0.2, Measure: 0.6, Period: 1})
	if got, want := RenderMatrixTSV(cells), viaFmt(cells); got != want {
		t.Fatalf("default matrix: rendered\n%s\nfmt renders\n%s", got, want)
	}
}

func TestParseMatrixTSVRejects(t *testing.T) {
	t.Parallel()
	for label, in := range map[string]string{
		"empty":       "",
		"bad header":  "a\tb\n",
		"short row":   matrixTSVHeader + "\nonly\tfour\tcols\there\n",
		"bad float":   matrixTSVHeader + "\ndumbbell\tstatic\ta\tb\tx\t1\t1\t1\t1\t1\t1\tfalse\n",
		"bad boolean": matrixTSVHeader + "\ndumbbell\tstatic\ta\tb\t1\t1\t1\t1\t1\t1\t1\tmaybe\n",
		"all NaN":     nanTSV,
		"one +Inf":    infTSV,
	} {
		if _, err := ParseMatrixTSV(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: accepted", label)
		}
	}
	// A non-finite number is reported where it stands.
	if _, err := ParseMatrixTSV(strings.NewReader(infTSV)); err == nil || !strings.Contains(err.Error(), "line 3 col 7") {
		t.Fatalf("+Inf ratio on line 3: %v, want an error naming line 3 col 7", err)
	}
}

// Two documents strconv.ParseFloat is happy with and a heatmap is not:
// each used to get through ParseMatrixTSV and panic RenderMatrixHeatmap
// on heatRamp[int(NaN)].
const (
	nanTSV = matrixTSVHeader + "\nd\ts\tA\tB\tNaN\tNaN\tNaN\tNaN\tNaN\tNaN\tNaN\tfalse\n"
	infTSV = matrixTSVHeader + "\nd\ts\tA\tB\t1\t1\t1\t1\t0\t0\t1\tfalse\nd\ts\tB\tA\t1\t1\t+Inf\t1\t0\t0\t1\tfalse\n"
)

// FuzzParseMatrixTSV feeds arbitrary bytes to the reader behind
// `slowccreport -heatmap`. Whatever the document holds, ParseMatrixTSV
// must not panic and must not allocate beyond its line buffer plus a
// multiple of the input; and cells it accepts must render — both
// heatmaps, every metric, no panic — and survive RenderMatrixTSV: the
// rewritten table parses to the same cells at the table's %.6g.
func FuzzParseMatrixTSV(f *testing.F) {
	f.Add([]byte(RenderMatrixTSV(heatmapCells()))) // two grids, one degraded cell
	f.Add([]byte(matrixTSVHeader + "\n"))
	f.Add([]byte(nanTSV))
	f.Add([]byte(infTSV))
	f.Add([]byte(matrixTSVHeader + "\nd\ts\tA\tB\t1\t1\t-1e308\t1\t0\t0\t1\tfalse\nd\ts\tB\tA\t1\t1\t1e308\t1\t0\t0\t1\tfalse\n"))

	f.Fuzz(func(t *testing.T, doc []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cells, err := ParseMatrixTSV(bytes.NewReader(doc))
		runtime.ReadMemStats(&m1)
		// The scanner buffer is 1 MiB whatever the reader is given.
		if limit := uint64(2<<20 + 64*len(doc)); m1.TotalAlloc-m0.TotalAlloc > limit {
			t.Fatalf("ParseMatrixTSV allocated %d bytes for %d bytes of input", m1.TotalAlloc-m0.TotalAlloc, len(doc))
		}
		if err != nil || len(cells) == 0 {
			return
		}
		for _, metric := range MatrixMetrics() {
			if _, err := RenderMatrixHeatmap(cells, metric); err != nil {
				t.Fatalf("ASCII heatmap of accepted cells (%s): %v", metric, err)
			}
			if _, err := RenderMatrixHeatmapSVG(cells, metric); err != nil {
				t.Fatalf("SVG heatmap of accepted cells (%s): %v", metric, err)
			}
		}
		tsv := RenderMatrixTSV(cells)
		again, err := ParseMatrixTSV(strings.NewReader(tsv))
		if err != nil {
			t.Fatalf("re-rendered TSV does not parse: %v\n%s", err, tsv)
		}
		if len(again) != len(cells) || RenderMatrixTSV(again) != tsv {
			t.Fatalf("re-rendered TSV parses to different cells:\n%s", tsv)
		}
	})
}

func TestHeatmapASCIIGolden(t *testing.T) {
	t.Parallel()
	out, err := RenderMatrixHeatmap(heatmapCells(), "ratio")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "heatmap_ratio.golden", out)
	// Structure sanity independent of the golden: a degraded marker and
	// both grids present.
	if !strings.Contains(out, "!") || !strings.Contains(out, "[dumbbell / faulted]") {
		t.Fatalf("heatmap missing structure:\n%s", out)
	}
}

func TestHeatmapSVGGolden(t *testing.T) {
	t.Parallel()
	out, err := RenderMatrixHeatmapSVG(heatmapCells(), "utilization")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "heatmap_util.golden.svg", out)
	if !strings.HasPrefix(out, "<svg ") || !strings.HasSuffix(out, "</svg>\n") {
		t.Fatal("not a standalone SVG document")
	}
	if !strings.Contains(out, "degraded") {
		t.Fatal("degraded cell missing from SVG titles")
	}
}

func TestHeatmapErrors(t *testing.T) {
	t.Parallel()
	if _, err := RenderMatrixHeatmap(nil, "ratio"); err == nil {
		t.Fatal("empty cells accepted")
	}
	if _, err := RenderMatrixHeatmap(heatmapCells(), "latency"); err == nil {
		t.Fatal("unknown metric accepted")
	}
	if _, err := RenderMatrixHeatmapSVG(heatmapCells(), "latency"); err == nil {
		t.Fatal("unknown metric accepted (svg)")
	}
}
