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

// redPowGrid is the inputs of RED's idle decay, math.Pow(1-w, m)
// (RED.updateAvg): the weight every topology's queue takes (NewRED's
// default), and idle spans m, in packet times, from a thousandth of a
// packet past the point where the decay underflows to 0. Each m is one
// product of exact constants, so the grid itself is the same on every
// CPU.
func redPowGrid() (ws, ms []float64) {
	ws = []float64{NewRED(1, 2, 4, 1, nil).Weight}
	ms = []float64{0}
	for dec := 1e-3; dec < 1e6; dec *= 10 {
		for _, mant := range []float64{1, 1.25, 1.5, 2, 2.5, 3.3, 5, 7.5} {
			ms = append(ms, mant*dec)
		}
	}
	ms = append(ms, 3.5e5, 3.7e5, 3.75e5, 4e5)
	return ws, ms
}

// RED ages its average across an idle period with math.Pow, whose
// fractional part goes through math.Exp: assembly on amd64, with an FMA
// branch chosen by CPU feature, and pure Go on arm64. The simulated
// stream depends on every bit of the result, so the bits are pinned per
// (w, m) in testdata/red_pow.tsv; a CPU whose library rounds one of them
// differently fails here, naming the first pair, before any digest
// moves. Re-record with go test ./internal/netem -run REDIdleDecay -update.
func TestREDIdleDecayBitsPinned(t *testing.T) {
	ws, ms := redPowGrid()
	path := filepath.Join("testdata", "red_pow.tsv")
	if *updatePow {
		var b strings.Builder
		b.WriteString("# w\tm\tmath.Float64bits(math.Pow(1-w, m))\n")
		for _, w := range ws {
			for _, m := range ms {
				fmt.Fprintf(&b, "%s\t%s\t%016x\n", strconv.FormatFloat(w, 'g', -1, 64),
					strconv.FormatFloat(m, 'g', -1, 64), math.Float64bits(math.Pow(1-w, m)))
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
		if got := math.Float64bits(math.Pow(1-w, m)); got != want {
			t.Fatalf("Pow(1-w, m) at (w %g, m %g) is %016x (%g), pinned %016x (%g)",
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
