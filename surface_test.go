package slowcc_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// unreached lists the declarations kept although no root reaches them,
// as "pkg.Name" or "pkg.Type.Method" → reason. It is the only exemption
// TestEverythingIsReached grants; an entry that a binary reaches, that
// names no declaration, or that gives no reason fails the test too.
var unreached = map[string]string{
	"exp.SACKTCPAlgo":             "the documented Sack1 fidelity ablation (BenchmarkSACKAblation, EXPERIMENTS.md methodology note)",
	"tcpmodel.FkTCP":              "the paper's closed form for f(k); only tcpmodel's own tests call it, no Fig 13 code does until ROADMAP item 21 compares it with the simulated f(k)",
	"tcpmodel.AggressivenessTCP":  "the paper's closed form for TCP(b) aggressiveness; only tcpmodel's own tests call it, no Fig 20 code does until ROADMAP item 21 compares it with a simulated ramp",
	"faults.Injector.Attached":    "how the faults tests and the pinned-stream row prove a disabled injector wires nothing",
	"cc.AckReceiver.NextExpected": "the in-order point the cc and tcp receiver tests check delivery and loss recovery by",
	"journey.Recorder.Spans":      "the retained spans the journey tests check attribution against",
	"sim.Engine.Pending":          "how faults_test proves a disabled injector schedules no timer",
	"store.Encode":                "Decode's inverse: store_test's codec, golden-frame and benchmark tests build raw value encodings with it (NewEntry is the production path)",
	"trace.Recorder.Total":        "how the pinned-stream row and netem's watched-link allocation test count what a ring Recorder saw beyond its Limit",
	"invariant.Auditor.Err":       "how the audited tests of topology, netem, exp and the pinned-stream row fail on a breach",
	"obs.ReadTimelineFile":        "how cmd/smoke_test.go and bench/bench_test.go check that each timeline a binary writes is valid trace-event JSON",
}

// TestEverythingIsReached holds every non-test declaration of the module
// — func, method, type, var and const, exported or not, the root
// package's included — to one rule: some binary or example reaches it.
// The roots are each main of cmd/, examples/ and bench/, each init, each
// package-level var initialiser, and each Example function of
// example_test.go, which must carry an output comment so that go test
// runs it. So the root package exports what an example uses and nothing
// more; the commands import internal/ directly. From a reached
// declaration, everything its source names is reached (go/types
// resolves each use to its declaration, generic instances to their
// origin); a reached type also reaches each of its methods that
// implements an interface the type satisfies (interfaceMethods), since a
// call through the interface names no method. A use in any other
// _test.go file reaches nothing. bench/'s own declarations are roots'
// helpers, not checked.
//
// A declaration no root reaches fails, unless the unreached table lists
// it with a reason. A listed entry is a root of its own: what only it
// reaches is its cost, logged per entry, so the table shows what each
// exemption keeps alive.
func TestEverythingIsReached(t *testing.T) {
	m := moduleSource(t)

	// Each declaration, with what its source names and its length.
	type decl struct {
		uses  []types.Object
		lines int
		check bool // bench/'s own are not
	}
	decls := map[types.Object]*decl{}
	var roots []types.Object
	methods := m.interfaceMethods()
	for _, p := range m.pkgs {
		inBench := p.dir == "bench" || strings.HasPrefix(p.dir, "bench/")
		declare := func(obj types.Object, n ast.Node, uses []types.Object) {
			decls[obj] = &decl{uses, m.fset.Position(n.End()).Line - m.fset.Position(n.Pos()).Line + 1, !inBench}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.pkg.Name() == "main") {
						roots = append(roots, p.named(d)...)
						continue
					}
					declare(p.info.Defs[d.Name], d, p.named(d))
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							declare(p.info.Defs[s.Name], s, p.named(s))
						case *ast.ValueSpec:
							if d.Tok == token.VAR {
								for _, v := range s.Values {
									roots = append(roots, p.named(v)...)
								}
							}
							for _, id := range s.Names {
								if id.Name != "_" {
									declare(p.info.Defs[id], s, p.named(s))
								}
							}
						}
					}
				}
			}
		}
	}
	ex := m.examples
	for _, d := range ex.files[0].Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || !strings.HasPrefix(fd.Name.Name, "Example") {
			continue
		}
		if !hasOutput(ex.files[0], fd) {
			t.Errorf("%s: %s has no // Output: comment, so go test never runs it; it roots nothing until it does",
				m.fset.Position(fd.Pos()), fd.Name.Name)
			continue
		}
		roots = append(roots, ex.named(fd)...)
	}

	// reach marks everything from objs not yet in seen, and returns what
	// it marked.
	reach := func(seen map[types.Object]bool, objs ...types.Object) []types.Object {
		var marked []types.Object
		for work := objs; len(work) > 0; {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			if seen[obj] {
				continue
			}
			seen[obj] = true
			if d, ok := decls[obj]; ok {
				marked = append(marked, obj)
				work = append(work, d.uses...)
			}
			if tn, ok := obj.(*types.TypeName); ok {
				work = append(work, methods[tn]...)
			}
		}
		return marked
	}
	reached := map[types.Object]bool{}
	reach(reached, roots...)

	// The listed entries, each with its cost: what only it keeps alive.
	byKey := map[string][]types.Object{}
	for obj := range decls {
		byKey[objectKey(obj)] = append(byKey[objectKey(obj)], obj)
	}
	kept := maps.Clone(reached)
	var keys, costs []string
	for key := range unreached {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if unreached[key] == "" {
			t.Errorf("unreached entry %s gives no reason", key)
		}
		objs := byKey[key]
		if len(objs) == 0 {
			t.Errorf("unreached lists %s, which the module no longer declares: drop the entry", key)
			continue
		}
		var names []string
		lines := 0
		for _, obj := range objs {
			if reached[obj] {
				t.Errorf("unreached lists %s, which a binary reaches: drop the entry", key)
			}
			for _, c := range reach(maps.Clone(reached), obj) {
				lines += decls[c].lines
				if c != obj {
					names = append(names, objectKey(c))
				}
			}
			reach(kept, obj)
		}
		sort.Strings(names)
		costs = append(costs, fmt.Sprintf("%s\t%d lines\t%s", key, lines, strings.Join(names, ", ")))
	}
	t.Logf("what each unreached entry keeps alive:\n\t%s", strings.Join(costs, "\n\t"))

	var orphans []string
	checked := 0
	for obj, d := range decls {
		if !d.check {
			continue
		}
		checked++
		if !kept[obj] {
			orphans = append(orphans, objectKey(obj)+"\t"+m.fset.Position(obj.Pos()).String())
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d of the module's %d declarations outside bench/ are reached by no binary or example; delete them, or add an unreached line saying why a test needs them:\n\t%s",
			len(orphans), checked, strings.Join(orphans, "\n\t"))
	}
}

// benchOnly lists the exported names of internal/exp/benchsurface.go:
// package-level wrappers over one default exp.Sweep, kept only because
// bench/ compiles against them. TestBenchSurfaceIsBenchOnly holds the
// list to that file and to its one user.
var benchOnly = map[string]string{
	"SetSweepStore":    benchReason,
	"SetSweepProgress": benchReason,
	"SetSweepTimeline": benchReason,
	"SweepErrors":      benchReason,
	"ResetSweepErrors": benchReason,
	"Supervise":        benchReason,
	"Matrix":           benchReason,
	"Fig3":             benchReason,
	"Fig6":             benchReason,
	"Fairness":         benchReason,
	"Fig10":            benchReason,
	"Fig13":            benchReason,
	"Oscillation":      benchReason,
	"RunSmoothness":    benchReason,
}

const benchReason = "bench/ calls it; ROADMAP 1(b) ports bench onto exp.Sweep"

// TestBenchSurfaceIsBenchOnly: every exported name of the bench-surface
// file is listed in benchOnly and every entry is declared there; bench/
// uses each one; and nothing else does — no exp.Name outside bench/, no
// bare call inside internal/exp but the wrappers' own test. Roster rows,
// slowccsim and the tests reach exp through a Sweep value instead.
func TestBenchSurfaceIsBenchOnly(t *testing.T) {
	const surface = "internal/exp/benchsurface.go"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, surface, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
			declared[fd.Name.Name] = true
			if _, ok := benchOnly[fd.Name.Name]; !ok {
				t.Errorf("%s exports %s, which benchOnly does not list", surface, fd.Name.Name)
			}
		}
	}
	for name, reason := range benchOnly {
		if !declared[name] {
			t.Errorf("benchOnly lists %s, which %s does not declare", name, surface)
		}
		if reason == "" {
			t.Errorf("benchOnly entry %s gives no reason", name)
		}
	}

	usedByBench := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		path = filepath.ToSlash(path)
		if path == surface || path == "internal/exp/benchsurface_test.go" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		inBench := strings.HasPrefix(path, "bench/")
		inExp := strings.HasPrefix(path, "internal/exp/")
		ast.Inspect(f, func(n ast.Node) bool {
			var name string
			switch n := n.(type) {
			case *ast.SelectorExpr: // exp.Name
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "exp" {
					name = n.Sel.Name
				}
			case *ast.CallExpr: // a bare Name(…) or Name[T](…) inside package exp
				fun := n.Fun
				if ix, ok := fun.(*ast.IndexExpr); ok {
					fun = ix.X
				}
				if id, ok := fun.(*ast.Ident); ok && inExp {
					name = id.Name
				}
			}
			if _, listed := benchOnly[name]; !listed {
				return true
			}
			if inBench && !strings.HasSuffix(path, "_test.go") {
				usedByBench[name] = true
			} else if !inBench {
				t.Errorf("%s: calls the bench-only wrapper %s; go through an exp.Sweep", fset.Position(n.Pos()), name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name := range benchOnly {
		if !usedByBench[name] {
			t.Errorf("bench/ no longer calls exp.%s: delete the wrapper and its benchOnly entry", name)
		}
	}
}

// fieldTestOnly lists the exported internal/ struct fields kept although
// no non-test file writes them, as "pkg.Type.Field" → reason. It is the
// only exemption TestInternalFieldsHaveWriters grants; an entry whose
// field has gained a writer, or no longer exists, fails the test too.
// Two kinds of field earn a line: a safety check or a value bench/ reads,
// and the pooled-vs-unpooled determinism reference. A field only tests
// set to shrink a run earns none: a test shrinks a run through settings
// production turns too, or calls the cell function (runOutage, staticRun,
// …) with the arguments it needs.
var fieldTestOnly = map[string]string{
	"sim.Budget.LivelockEvents":           "safety check: a run stuck at one instant halts instead of spinning; tests set it to prove the halt",
	"obs.SweepEvent.Attempt":              "bench/trace.go reads it, and only a change to the benchmark may edit bench/",
	"exp.FairnessPoint.AMeanCI":           oracleReason,
	"exp.FairnessPoint.BMeanCI":           oracleReason,
	"exp.FairnessConfig.DisablePool":      poolReason,
	"exp.MatrixConfig.DisablePool":        poolReason,
	"exp.StabilizationConfig.DisablePool": poolReason,
}

const (
	oracleReason = "always zero, but bench/'s figures oracle hashes a FairnessPoint's %+v text, field names included, and only a change to the benchmark may re-record it"
	poolReason   = "the pooled-vs-unpooled determinism tests run with pooling off as their heap-allocation reference"
)

// TestInternalFieldsHaveWriters is TestEverythingIsReached one level
// down: every exported field of an exported struct declared in a non-test
// file under internal/ must be written by some non-test .go file of the
// module. A write is a key or a positional element of a composite
// literal of the field's struct type (element types elided inside []T{…}
// and map[K]T{…} included), a field selected anywhere in the chain of an
// assignment, op=, ++ or -- target, or in the operand of &. Each write
// resolves to the field it selects (go/types over the whole module), so
// a same-named field of another struct keeps nothing. A write whose value
// is nothing but another tracked field (Hop{Rate: c.Rate}) is a copy:
// it counts only once that source field is written or listed in
// fieldTestOnly itself. A write inside a method named fill is a default,
// not a setting, and does not count. A setting nothing sets has one
// value: make it a constant, or add a fieldTestOnly line saying why not.
func TestInternalFieldsHaveWriters(t *testing.T) {
	m := moduleSource(t)

	// Every exported, named field of an exported internal/ struct type.
	fields := map[*types.Var]string{} // field -> pkg.Type.Field
	for _, p := range m.internal() {
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					fields[f] = p.pkg.Name() + "." + name + "." + f.Name()
				}
			}
		}
	}

	// written marks the fields a non-test file sets. copied maps a field
	// to the fields a write into it only forwards (Hop{Rate: c.Rate},
	// x.Rate = c.Rate): such a write counts once one of its sources is
	// written or exempt itself, so a copy cannot keep a setting nothing
	// sets alive.
	written := map[*types.Var]bool{}
	copied := map[*types.Var][]*types.Var{}
	for _, p := range m.pkgs {
		// field records a write of obj, val being the value written when
		// the write has one.
		field := func(obj types.Object, val ast.Expr) {
			v, ok := obj.(*types.Var)
			if !ok || !v.IsField() {
				return
			}
			if sel, ok := ast.Unparen(val).(*ast.SelectorExpr); ok {
				if s, ok := p.info.Selections[sel]; ok && s.Kind() == types.FieldVal {
					if src := s.Obj().(*types.Var).Origin(); fields[src] != "" {
						copied[v.Origin()] = append(copied[v.Origin()], src)
						return
					}
				}
			}
			written[v.Origin()] = true
		}
		var chain func(e, val ast.Expr)
		chain = func(e, val ast.Expr) {
			switch e := e.(type) {
			case *ast.SelectorExpr:
				if s, ok := p.info.Selections[e]; ok && s.Kind() == types.FieldVal {
					field(s.Obj(), val)
				}
				chain(e.X, nil)
			case *ast.IndexExpr:
				chain(e.X, nil)
			case *ast.StarExpr:
				chain(e.X, nil)
			case *ast.ParenExpr:
				chain(e.X, val)
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					// A fill method writing its own default is not a setting.
					return n.Recv == nil || n.Name.Name != "fill"
				case *ast.AssignStmt:
					for i, e := range n.Lhs {
						if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
							chain(e, n.Rhs[i])
						} else {
							chain(e, nil)
						}
					}
				case *ast.IncDecStmt:
					chain(n.X, nil)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						chain(n.X, nil)
					}
				case *ast.CompositeLit:
					st, ok := p.info.TypeOf(n).Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							field(p.info.Uses[kv.Key.(*ast.Ident)], kv.Value)
						} else {
							field(st.Field(i), e)
						}
					}
				}
				return true
			})
		}
	}
	for grew := true; grew; {
		grew = false
		for dst, srcs := range copied {
			for _, src := range srcs {
				if _, exempt := fieldTestOnly[fields[src]]; !written[dst] && (written[src] || exempt) {
					written[dst], grew = true, true
				}
			}
		}
	}

	var orphans []string
	keys := map[string]bool{}
	for f, key := range fields {
		keys[key] = true
		_, exempt := fieldTestOnly[key]
		switch {
		case !written[f] && !exempt:
			orphans = append(orphans, key+"\t"+m.fset.Position(f.Pos()).String())
		case written[f] && exempt:
			t.Errorf("fieldTestOnly lists %s, which a non-test file writes: drop the entry", key)
		}
	}
	for key, reason := range fieldTestOnly {
		if !keys[key] {
			t.Errorf("fieldTestOnly lists %s, which internal/ no longer declares: drop the entry", key)
		}
		if reason == "" {
			t.Errorf("fieldTestOnly entry %s gives no reason", key)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d of internal/'s %d exported struct fields are never written by a non-test file; make each a constant, or add a fieldTestOnly line saying why a test needs it:\n\t%s",
			len(orphans), len(fields), strings.Join(orphans, "\n\t"))
	}
}

// TestDesignNamesResolve keeps DESIGN.md's code names honest: every
// backticked qualified Go name in it — pkg.Name, pkg.Type.Member, or
// Type.Member of a type the module declares, a trailing call's
// arguments dropped — must resolve, through go/types, to a declaration
// of the module. A span whose first part is neither a module package nor
// a module type (math.Pow, sw.Matrix, d.Fwd) is not a module name, one
// that ends in a file extension (trace.go, oracle.tsv) is a file, and
// one with an underscore (sim.ns_per_event_p64) is a benchmark metric.
// README.md is held the same way for the names a library user types:
// every slowcc.X in it, fenced code included, must be a root export.
func TestDesignNamesResolve(t *testing.T) {
	m := moduleSource(t)
	pkgs := map[string][]*types.Package{}       // package name -> packages
	typeNames := map[string][]*types.TypeName{} // type name -> declarations
	for _, p := range m.pkgs {
		if p.pkg.Name() == "main" {
			continue
		}
		pkgs[p.pkg.Name()] = append(pkgs[p.pkg.Name()], p.pkg)
		for _, name := range p.pkg.Scope().Names() {
			if tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName); ok {
				typeNames[name] = append(typeNames[name], tn)
			}
		}
	}
	// member resolves the selectors in path on obj, each on the type of
	// the one before.
	var member func(obj types.Object, path []string) bool
	member = func(obj types.Object, path []string) bool {
		if len(path) == 0 {
			return true
		}
		switch obj.(type) {
		case *types.TypeName, *types.Var:
		default:
			return false
		}
		next, _, _ := types.LookupFieldOrMethod(obj.Type(), true, obj.Pkg(), path[0])
		return next != nil && member(next, path[1:])
	}
	resolves := func(parts []string) (module, ok bool) {
		if ps, isPkg := pkgs[parts[0]]; isPkg {
			for _, p := range ps {
				if obj := p.Scope().Lookup(parts[1]); obj != nil && member(obj, parts[2:]) {
					return true, true
				}
			}
			return true, false
		}
		if tns, isType := typeNames[parts[0]]; isType {
			for _, tn := range tns {
				if member(tn, parts[1:]) {
					return true, true
				}
			}
			return true, false
		}
		return false, false
	}

	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	span := regexp.MustCompile("`([^`\n]+)`")
	name := regexp.MustCompile(`^\*?([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(.*\))?$`)
	files := map[string]bool{"go": true, "md": true, "tsv": true, "bin": true, "json": true, "golden": true, "svg": true, "txt": true, "mod": true}
	fenced, checked := false, 0
	for i, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
		}
		if fenced {
			continue
		}
		for _, sm := range span.FindAllStringSubmatch(line, -1) {
			nm := name.FindStringSubmatch(sm[1])
			if nm == nil {
				continue
			}
			parts := strings.Split(nm[1], ".")
			if files[parts[len(parts)-1]] || strings.Contains(nm[1], "_") {
				continue
			}
			if module, ok := resolves(parts); module {
				checked++
				if !ok {
					t.Errorf("DESIGN.md:%d: `%s` names no declaration of the module", i+1, sm[1])
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("DESIGN.md holds no module name: the scan is broken")
	}
	t.Logf("%d module names checked", checked)

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	root := pkgs["slowcc"][0]
	for i, line := range strings.Split(string(readme), "\n") {
		for _, sm := range regexp.MustCompile(`\bslowcc\.([A-Z]\w*)`).FindAllStringSubmatch(line, -1) {
			if root.Scope().Lookup(sm[1]) == nil {
				t.Errorf("README.md:%d: names slowcc.%s, which the root package does not export", i+1, sm[1])
			}
		}
	}
}

// sourcePkg is one package of the module, parsed and type-checked from
// source: a non-test package, or the root's example_test.go.
type sourcePkg struct {
	dir   string // slash-separated, relative to the module root
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// named returns the declaration each identifier in n uses, the generic
// origin for an instantiated one.
func (p *sourcePkg) named(n ast.Node) []types.Object {
	var out []types.Object
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.info.Uses[id]; obj != nil {
				out = append(out, origin(obj))
			}
		}
		return true
	})
	return out
}

// hasOutput reports whether the example fd of f carries an output
// comment, without which go test compiles it but never runs it.
func hasOutput(f *ast.File, fd *ast.FuncDecl) bool {
	for _, cg := range f.Comments {
		if cg.Pos() > fd.Body.Lbrace && cg.End() < fd.Body.Rbrace {
			for _, c := range cg.List {
				if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "Output:") {
					return true
				}
			}
		}
	}
	return false
}

// module is every non-test package of the module, dependencies first,
// checked in one types universe: an identifier anywhere resolves to the
// one object it names, whichever package declares it. examples is the
// root package's example_test.go, checked against the same universe:
// its Example functions are roots, and nothing it declares is checked.
type module struct {
	fset     *token.FileSet
	pkgs     []*sourcePkg
	examples *sourcePkg
}

// internal returns the packages under internal/.
func (m *module) internal() []*sourcePkg {
	var out []*sourcePkg
	for _, p := range m.pkgs {
		if strings.HasPrefix(p.dir, "internal/") {
			out = append(out, p)
		}
	}
	return out
}

var loadModule = sync.OnceValues(func() (*module, error) {
	// The package list in dependency order, and for the standard library
	// the export data a build leaves in the cache: go/types imports it
	// with the gc importer, so no package outside the module is parsed.
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,Standard", "./...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}

	m := &module{fset: token.NewFileSet()}
	exports := map[string]string{}        // std import path -> export data file
	source := map[string]*types.Package{} // module import path -> checked package
	gc := importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("go list gave no export data for %s", path)
		}
		return os.Open(file)
	})
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := source[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp struct {
			ImportPath, Dir, Export string
			GoFiles                 []string
			Standard                bool
		}
		if err := dec.Decode(&lp); err != nil {
			return nil, err
		}
		if lp.Standard {
			exports[lp.ImportPath] = lp.Export
			continue
		}
		dir, err := filepath.Rel(root, lp.Dir)
		if err != nil {
			return nil, err
		}
		p := &sourcePkg{dir: filepath.ToSlash(dir), info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		if p.pkg, err = conf.Check(lp.ImportPath, m.fset, p.files, p.info); err != nil {
			return nil, err
		}
		source[lp.ImportPath] = p.pkg
		m.pkgs = append(m.pkgs, p)
	}

	f, err := parser.ParseFile(m.fset, "example_test.go", nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	m.examples = &sourcePkg{dir: ".", files: []*ast.File{f}, info: &types.Info{Uses: map[*ast.Ident]types.Object{}}}
	if m.examples.pkg, err = conf.Check("slowcc_test", m.fset, m.examples.files, m.examples.info); err != nil {
		return nil, err
	}
	return m, nil
})

// moduleSource returns the module loaded once for the test binary.
func moduleSource(t *testing.T) *module {
	t.Helper()
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// interfaceMethods returns, for each module type, every method of it
// that implements a method of an interface the type (or a pointer to it)
// satisfies: the interfaces the module's packages declare or spell, and
// those of every package they import, directly or not, error included.
func (m *module) interfaceMethods() map[*types.TypeName][]types.Object {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Interface]bool{}
	add := func(typ types.Type) {
		if n, ok := typ.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() && !seen[it] {
			seen[it] = true
			ifaces = append(ifaces, it)
		}
	}
	walked := map[*types.Package]bool{}
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		if walked[pkg] {
			return
		}
		walked[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range m.pkgs {
		walk(p.pkg)
		for _, tv := range p.info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}

	out := map[*types.TypeName][]types.Object{}
	for _, p := range m.pkgs {
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			has := map[string]bool{}
			ms := types.NewMethodSet(ptr)
			for i := 0; i < ms.Len(); i++ {
				has[ms.At(i).Obj().Name()] = true
			}
			for _, it := range ifaces {
				if !has[it.Method(0).Name()] || !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					obj, _, _ := types.LookupFieldOrMethod(ptr, false, it.Method(i).Pkg(), it.Method(i).Name())
					out[tn] = append(out[tn], origin(obj))
				}
			}
		}
	}
	return out
}

// origin is the generic declaration an instantiated field or method
// comes from; any other object is its own.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Var:
		return o.Origin()
	case *types.Func:
		return o.Origin()
	}
	return obj
}

// objectKey names a declaration as the exemption tables do: "pkg.Name",
// or "pkg.Type.Method" for a method.
func objectKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			typ := recv.Type()
			if ptr, ok := typ.(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			return obj.Pkg().Name() + "." + typ.(*types.Named).Obj().Name() + "." + obj.Name()
		}
	}
	return obj.Pkg().Name() + "." + obj.Name()
}
