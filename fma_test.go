//go:build fmacheck

// The fused-multiply-add check cross-compiles the simulator for four
// architectures, which costs tens of seconds on a cold build cache, so
// it runs under the fmacheck tag from `make ci`:
//
//	go test -tags fmacheck -run TestNoFusedMultiplyAdd .
package slowcc_test

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// digestedPackages are the packages whose floating-point arithmetic
// decides which events run when, and so the stream digest.
var digestedPackages = []string{
	"slowcc/internal/sim",
	"slowcc/internal/netem",
	"slowcc/internal/topology",
	"slowcc/internal/cc/...",
	"slowcc/internal/workload",
	"slowcc/internal/tcpmodel",
}

// fusedOp matches one fused multiply-add or multiply-subtract in a -S
// listing, with the source position it was compiled from: FMADDD on
// arm64 and riscv64, FMADD on ppc64le and s390x, and their subtracting
// and negated forms.
var fusedOp = regexp.MustCompile(`\((\S+\.go:\d+)\)\s+(FN?M(?:ADD|SUB)[SD]?)\s`)

// TestNoFusedMultiplyAdd holds DESIGN's rule "no fused float op on the
// digested path". Go may compile x*y + z into one fused instruction,
// which rounds once where the source rounds twice, on every architecture
// it targets but amd64; a fused site makes the simulation's answer
// depend on the CPU. An explicit float64(x*y) rounds the product and so
// forbids the fusion. The test compiles the digested packages for each
// fusing architecture with -S and names the file:line of every fused
// instruction it finds (an inlined callee's line names the callee).
func TestNoFusedMultiplyAdd(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"build"}
	for _, p := range digestedPackages {
		args = append(args, "-gcflags="+p+"=-S")
	}
	for _, p := range digestedPackages {
		args = append(args, "./"+strings.TrimPrefix(p, "slowcc/"))
	}
	for _, arch := range []string{"arm64", "ppc64le", "s390x", "riscv64"} {
		t.Run(arch, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command("go", args...)
			cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0")
			var listing bytes.Buffer
			cmd.Stdout, cmd.Stderr = &listing, &listing
			if err := cmd.Run(); err != nil {
				t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, listing.Bytes())
			}
			sc := bufio.NewScanner(&listing)
			sc.Buffer(nil, 1<<20)
			listed := false
			for sc.Scan() {
				line := sc.Text()
				listed = listed || strings.Contains(line, " STEXT ")
				if m := fusedOp.FindStringSubmatch(line); m != nil {
					pos, _ := filepath.Rel(wd, m[1])
					t.Errorf("%s: %s fuses a multiply into an add: round the product with float64(…)", pos, m[2])
				}
			}
			if !listed {
				t.Fatalf("go build printed no assembly listing:\n%s", listing.Bytes())
			}
		})
	}
}
