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

// TestNoLibraryTranscendentals holds the digested path to functions whose
// answer does not depend on the CPU. math.Exp, Log, Pow and the rest are
// library code with per-architecture assembly and FMA branches: the same
// inputs can round differently on two CPUs, and a run's answer with
// them. Every math function a non-test file of libmPackages names must
// be exactly rounded, and no math/rand draw may go through one; the same
// holds for each tcpmodel function those files call, and for what it
// calls in turn (the TFRC endpoints' PadhyeRate and PadhyeInverse).
// There is no exemption.
func TestNoLibraryTranscendentals(t *testing.T) {
	m := moduleSource(t)
	type site struct {
		p    *sourcePkg
		name string
		decl ast.Decl
	}
	var work []site
	tcpmodel := map[types.Object]site{} // each tcpmodel function, by its object
	for _, p := range m.pkgs {
		guarded := false
		for _, dir := range libmPackages {
			guarded = guarded || p.dir == dir || strings.HasPrefix(p.dir, dir+"/")
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				s := site{p, p.pkg.Name(), d} // a package-level initialiser
				if fd, ok := d.(*ast.FuncDecl); ok {
					s.name = objectKey(p.info.Defs[fd.Name])
					if p.dir == "internal/tcpmodel" {
						tcpmodel[p.info.Defs[fd.Name]] = s
					}
				}
				if guarded {
					work = append(work, s)
				}
			}
		}
	}

	var bad []string
	checked := map[types.Object]bool{}
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		ast.Inspect(s.decl, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj, ok := s.p.info.Uses[id].(*types.Func)
			if !ok || obj.Pkg() == nil {
				return true
			}
			if callee, ok := tcpmodel[obj]; ok && !checked[obj] {
				checked[obj] = true
				work = append(work, callee)
			}
			switch path := obj.Pkg().Path(); {
			case path == "math" && !exactlyRounded[obj.Name()]:
				bad = append(bad, fmt.Sprintf("%s math.%s\t%s", s.name, obj.Name(), m.fset.Position(id.Pos())))
			case (path == "math/rand" || path == "math/rand/v2") && randTranscendentals[obj.Name()]:
				bad = append(bad, fmt.Sprintf("%s rand.%s\t%s", s.name, obj.Name(), m.fset.Position(id.Pos())))
			}
			return true
		})
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		t.Errorf("library transcendentals on the digested path; use an exactly rounded form:\n\t%s",
			strings.Join(bad, "\n\t"))
	}
}
