package slowcc_test

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// libmPackages are the module directories whose arithmetic decides which
// events run when; cc/ covers every sender under it.
var libmPackages = []string{"internal/sim", "internal/netem", "internal/topology", "internal/cc", "internal/workload", "internal/faults"}

// exactlyRounded are the math functions whose result is the one
// correctly rounded value on every CPU: exact operations, IEEE's
// correctly rounded square root, and bit and class tests.
var exactlyRounded = map[string]bool{
	"Abs": true, "Ceil": true, "Copysign": true, "Dim": true, "Float32bits": true, "Float32frombits": true,
	"Float64bits": true, "Float64frombits": true, "Floor": true, "Frexp": true, "Inf": true, "IsInf": true,
	"IsNaN": true, "Ldexp": true, "Max": true, "Min": true, "Mod": true, "Modf": true, "NaN": true,
	"Nextafter": true, "Remainder": true, "Round": true, "RoundToEven": true, "Signbit": true, "Sqrt": true,
	"Trunc": true,
}

// randTranscendentals are the math/rand draws that go through math.Exp
// or math.Log on their way to a value.
var randTranscendentals = map[string]bool{"ExpFloat64": true, "NormFloat64": true}

// libmExempt counts the library transcendental calls on the digested
// path still to be replaced, as "pkg.Func callee" or "pkg.Type.Method
// callee" → calls; an entry goes when its call does.
var libmExempt = map[string]int{
	// ROADMAP item 13: math.Pow(1-Weight, m), RED's idle decay.
	"netem.RED.updateAvg math.Pow": 1,
	// ROADMAP item 13: W^(K+1) and W^L, the binomial senders' general (K, L).
	"binomial.Policy.Increase math.Pow": 1,
	"binomial.Policy.Decrease math.Pow": 1,
	// ROADMAP item 13: a flap's exponential up and down times.
	// ExpFloat64's ziggurat calls math.Exp, which takes an FMA branch on
	// amd64 CPUs that have one, so a -fault flap: schedule can depend on
	// the CPU.
	"faults.Injector.Attach rand.ExpFloat64":   1,
	"faults.Injector.flapDown rand.ExpFloat64": 1,
	"faults.Injector.flapUp rand.ExpFloat64":   1,
}

// TestNoLibraryTranscendentals holds the digested path to functions whose
// answer does not depend on the CPU. math.Exp, Log, Pow and the rest are
// library code with per-architecture assembly and FMA branches: the same
// inputs can round differently on two CPUs, and a run's answer with
// them. Every math function a non-test file of libmPackages names must
// be exactly rounded, and no math/rand draw may go through one, unless
// libmExempt counts the call. A count that no longer matches fails too.
// (tcpmodel's closed forms that the senders call are not checked here.)
func TestNoLibraryTranscendentals(t *testing.T) {
	m := moduleSource(t)
	found := map[string][]string{} // key -> positions
	for _, p := range m.pkgs {
		guarded := false
		for _, dir := range libmPackages {
			guarded = guarded || p.dir == dir || strings.HasPrefix(p.dir, dir+"/")
		}
		if !guarded {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				site := p.pkg.Name() // a package-level initialiser
				if fd, ok := d.(*ast.FuncDecl); ok {
					site = objectKey(p.info.Defs[fd.Name])
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj, ok := p.info.Uses[id].(*types.Func)
					if !ok || obj.Pkg() == nil {
						return true
					}
					callee := ""
					switch path := obj.Pkg().Path(); {
					case path == "math" && !exactlyRounded[obj.Name()]:
						callee = "math." + obj.Name()
					case (path == "math/rand" || path == "math/rand/v2") && randTranscendentals[obj.Name()]:
						callee = "rand." + obj.Name()
					default:
						return true
					}
					key := site + " " + callee
					found[key] = append(found[key], m.fset.Position(id.Pos()).String())
					return true
				})
			}
		}
	}

	keys := map[string]bool{}
	for key := range found {
		keys[key] = true
	}
	for key := range libmExempt {
		keys[key] = true
	}
	var bad []string
	for key := range keys {
		if n := len(found[key]); n != libmExempt[key] {
			bad = append(bad, fmt.Sprintf("%s: %d found, %d listed\t%s", key, n, libmExempt[key], strings.Join(found[key], " ")))
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		t.Errorf("library transcendentals on the digested path that libmExempt does not count; use an exactly rounded form, or count the call with ROADMAP item 13:\n\t%s",
			strings.Join(bad, "\n\t"))
	}
}
