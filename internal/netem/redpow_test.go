package netem

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updatePow = flag.Bool("update", false, "rewrite testdata/red_pow.tsv")

// redPowGrid is the inputs of RED's idle decay, idleDecay(1-w, m)
// (RED.updateAvg): the weight every topology's queue takes (NewRED's
// default) and the fast averages the tests set, and idle spans m, in
// packet times, from a thousandth of a packet past the point where the
// decay underflows to 0 at the default weight, plus two whose fraction
// has bits past 2^-64 (one of them subnormal). Each m is one product of
// exact constants, so the grid itself is the same on every CPU.
func redPowGrid() (ws, ms []float64) {
	ws = []float64{NewRED(1, 2, 4, 1, nil).Weight, 0.25, 0.5, 1}
	ms = []float64{0}
	for dec := 1e-3; dec < 1e6; dec *= 10 {
		for _, mant := range []float64{1, 1.25, 1.5, 2, 2.5, 3.3, 5, 7.5} {
			ms = append(ms, mant*dec)
		}
	}
	ms = append(ms, 3.5e5, 3.7e5, 3.75e5, 4e5, 1e-20, 0x1p-1070)
	return ws, ms
}

// RED ages its average across an idle period with idleDecay, built from
// correctly rounded operations so that its bits are the same on every
// CPU. The simulated stream depends on every bit of the result, so the
// bits are pinned per (w, m) in testdata/red_pow.tsv: a change to the
// decay, or a CPU or compiler that rounds one of its steps differently,
// fails here, naming the first pair, before any digest moves. Re-record
// with go test ./internal/netem -run REDIdleDecay -update.
func TestREDIdleDecayBitsPinned(t *testing.T) {
	ws, ms := redPowGrid()
	path := filepath.Join("testdata", "red_pow.tsv")
	if *updatePow {
		var b strings.Builder
		b.WriteString("# w\tm\tmath.Float64bits(idleDecay(1-w, m))\n")
		for _, w := range ws {
			for _, m := range ms {
				fmt.Fprintf(&b, "%s\t%s\t%016x\n", strconv.FormatFloat(w, 'g', -1, 64),
					strconv.FormatFloat(m, 'g', -1, 64), math.Float64bits(idleDecay(1-w, m)))
			}
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		var w, m float64
		var want uint64
		if _, err := fmt.Sscanf(line, "%g\t%g\t%x", &w, &m, &want); err != nil {
			t.Fatalf("%s: %q: %v", path, line, err)
		}
		if n >= len(ws)*len(ms) || w != ws[n/len(ms)] || m != ms[n%len(ms)] {
			t.Fatalf("%s: row %d is (w %g, m %g), not the grid's: re-record it", path, n, w, m)
		}
		if got := math.Float64bits(idleDecay(1-w, m)); got != want {
			t.Fatalf("idleDecay(1-w, m) at (w %g, m %g) is %016x (%g), pinned %016x (%g)",
				w, m, got, math.Float64frombits(got), want, math.Float64frombits(want))
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(ws)*len(ms) {
		t.Fatalf("%s holds %d rows, the grid %d: re-record it", path, n, len(ws)*len(ms))
	}
}

// TestREDIdleDecayNearPow holds idleDecay to the value it stands for:
// within 32 ulp of math.Pow(1-w, m) at every point of the grid where
// the result is a normal number. (Pow itself may differ by an ulp
// between CPUs, which is why the decay does not call it.)
func TestREDIdleDecayNearPow(t *testing.T) {
	ws, ms := redPowGrid()
	worst := uint64(0)
	for _, w := range ws {
		for _, m := range ms {
			got, want := idleDecay(1-w, m), math.Pow(1-w, m)
			if want < 0x1p-1022 {
				if got >= 0x1p-1022 {
					t.Errorf("idleDecay(1-%g, %g) = %g, Pow underflows to %g", w, m, got, want)
				}
				continue
			}
			d := math.Float64bits(got) - math.Float64bits(want)
			if got < want {
				d = -d
			}
			if worst = max(worst, d); d > 32 {
				t.Errorf("idleDecay(1-%g, %g) = %g, %d ulp from Pow's %g", w, m, got, d, want)
			}
		}
	}
	t.Logf("largest distance from math.Pow over the grid: %d ulp", worst)
}
