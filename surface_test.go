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
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestRootSurfaceHasUsers is the litmus for the root package's surface:
// an exported name stays only while something a reader can run or read
// uses it. Users are the non-test Go files under examples/ and cmd/,
// example_test.go, and README.md; a used declaration also keeps every
// root name its type or signature mentions (not its body), so a kept
// constructor keeps the types a caller must be able to spell. To add a
// public name, write the example or README line that uses it.
func TestRootSurfaceHasUsers(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	// Every exported top-level name of the non-test root files, with the
	// expression holding its type or signature (nil for an untyped const).
	decl := map[string]ast.Expr{}
	where := map[string]token.Position{}
	add := func(id *ast.Ident, typ ast.Expr) {
		if id.IsExported() {
			decl[id.Name], where[id.Name] = typ, fset.Position(id.Pos())
		}
	}
	rootFiles, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range rootFiles {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		for _, d := range parse(path).Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, d.Type)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, s.Type)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, s.Type)
						}
					}
				}
			}
		}
	}

	// Every slowcc.X the users reference.
	used := map[string]bool{}
	scan := func(path string) {
		f := parse(path)
		local := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"slowcc"` {
				local = "slowcc"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	for _, dir := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				scan(path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	scan("example_test.go")
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range regexp.MustCompile(`\bslowcc\.([A-Z]\w*)`).FindAllSubmatch(readme, -1) {
		if _, ok := decl[string(m[1])]; !ok {
			t.Errorf("README.md names slowcc.%s, which the root package does not export", m[1])
		}
		used[string(m[1])] = true
	}

	// Close the kept set over the root names kept declarations mention.
	kept := map[string]bool{}
	var keep func(name string)
	keep = func(name string) {
		typ, ok := decl[name]
		if !ok || kept[name] {
			return
		}
		kept[name] = true
		if typ == nil {
			return
		}
		ast.Inspect(typ, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr: // pkg.Name names another package's identifier
				return false
			case *ast.Ident:
				keep(n.Name)
			}
			return true
		})
	}
	for name := range used {
		keep(name)
	}

	var orphans []string
	for name := range decl {
		if !kept[name] {
			orphans = append(orphans, name)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		var b strings.Builder
		for _, name := range orphans {
			b.WriteString("\n\t" + name + "\t" + where[name].String())
		}
		t.Errorf("%d of the root package's %d exported names have no user in examples/, cmd/, example_test.go or README.md; delete them, or write the example that needs them:%s",
			len(orphans), len(decl), b.String())
	}
}

// testOnly lists the exported internal/ names kept although no non-test
// file uses them, as "pkg.Name" or "pkg.Type.Method" → reason. It is the
// only exemption TestInternalSurfaceHasUsers grants; an entry whose name
// has gained a user, or no longer exists, fails the test too.
var testOnly = map[string]string{
	"exp.SACKTCPAlgo":             "the documented Sack1 fidelity ablation (BenchmarkSACKAblation, EXPERIMENTS.md methodology note)",
	"trace.ReadTSV":               "WriteTSV's round-trip oracle, fuzzed by FuzzReadTSV",
	"topology.ExplicitZero":       "the documented sentinel for \"this field is zero, do not default it\"",
	"tcpmodel.FkTCP":              "the paper's closed form for f(k), the reference the Fig 13 tests compare against",
	"tcpmodel.AggressivenessTCP":  "the paper's closed form for TCP(b) aggressiveness, the Fig 20 reference",
	"faults.Injector.Attached":    "how the faults tests and the pinned-stream row prove a disabled injector wires nothing",
	"cc.AckReceiver.NextExpected": "the in-order point the cc and tcp receiver tests check delivery and loss recovery by",
	"journey.Recorder.Spans":      "the retained spans the journey tests check attribution against",
	"sim.Engine.Rand":             "the only way to observe the engine's seed (the roster and sim tests draw from it); bench/ fixes sim.New(seed)'s signature until ROADMAP 1(b)",
	"sim.Engine.Pending":          "how faults_test proves a disabled injector schedules no timer",
	"store.Encode":                "Decode's inverse: store_test's codec, golden-frame and benchmark tests build raw value encodings with it (NewEntry is the production path)",
	"trace.Recorder.Total":        "how the pinned-stream row and netem's watched-link allocation test count what a ring Recorder saw beyond its Limit",
	"invariant.Auditor.Err":       "how the audited tests of topology, netem, exp and the pinned-stream row fail on a breach",
}

// TestInternalSurfaceHasUsers is TestRootSurfaceHasUsers one level
// down: every exported top-level func, type, var and const, and every
// exported method, declared in a non-test file under internal/ must be
// used by some non-test .go file of the module — bench/, cmd/,
// examples/, the root package or internal/ itself — outside its own
// declaration. Each use resolves to the object it names (go/types over
// the whole module), so a namesake in another package keeps nothing. A
// method also counts as used when it implements a method of an
// interface its receiver type satisfies: fmt calls String, encoding/json
// calls MarshalJSON, a link calls its netem.Handler. To add an exported
// internal name, write its non-test user, or a testOnly line with a
// reason.
func TestInternalSurfaceHasUsers(t *testing.T) {
	m := moduleSource(t)

	// Every exported declaration under internal/, with the span a use
	// must fall outside of to count.
	type span struct{ pos, end token.Pos }
	decls := map[types.Object]span{}
	for _, p := range m.internal() {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() { // a method too: it needs a caller as much as a func does
						decls[p.info.Defs[d.Name]] = span{d.Pos(), d.End()}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								decls[p.info.Defs[s.Name]] = span{s.Pos(), s.End()}
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if id.IsExported() {
									decls[p.info.Defs[id]] = span{s.Pos(), s.End()}
								}
							}
						}
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	use := func(obj types.Object, at token.Pos) {
		obj = origin(obj)
		if d, ok := decls[obj]; ok && (at < d.pos || at >= d.end) {
			used[obj] = true
		}
	}
	for _, p := range m.pkgs {
		for id, obj := range p.info.Uses {
			use(obj, id.Pos())
		}
		for sel, s := range p.info.Selections {
			use(s.Obj(), sel.Sel.Pos())
		}
	}
	for _, obj := range m.interfaceMethods() {
		used[origin(obj)] = true
	}

	var orphans []string
	keys := map[string]bool{}
	for obj := range decls {
		key := objectKey(obj)
		keys[key] = true
		_, exempt := testOnly[key]
		switch {
		case !used[obj] && !exempt:
			orphans = append(orphans, key+"\t"+m.fset.Position(obj.Pos()).String())
		case used[obj] && exempt:
			t.Errorf("testOnly lists %s, which a non-test file uses: drop the entry", key)
		}
	}
	for key, reason := range testOnly {
		if !keys[key] {
			t.Errorf("testOnly lists %s, which internal/ no longer exports: drop the entry", key)
		}
		if reason == "" {
			t.Errorf("testOnly entry %s gives no reason", key)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d of internal/'s %d exported names have no user in a non-test file; delete them, or add a testOnly line saying why a test needs them:\n\t%s",
			len(orphans), len(decls), strings.Join(orphans, "\n\t"))
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
var fieldTestOnly = map[string]string{
	"sim.Budget.LivelockEvents":           "safety check: a run stuck at one instant halts instead of spinning; tests set it to prove the halt",
	"obs.SweepEvent.Attempt":              "bench/trace.go reads it, and only a change to the benchmark may edit bench/",
	"exp.FairnessPoint.AMeanCI":           oracleReason,
	"exp.FairnessPoint.BMeanCI":           oracleReason,
	"exp.FairnessConfig.AFlows":           "TestDeterminismFairnessPooledVsUnpooled runs 2+2 flows to keep the pooled-vs-unpooled check short",
	"exp.FairnessConfig.BFlows":           "TestDeterminismFairnessPooledVsUnpooled runs 2+2 flows to keep the pooled-vs-unpooled check short",
	"exp.MatrixConfig.Conditions":         "the matrix, release and store tests (smallMatrixConfig, tinyMatrix) run one or two conditions, not all three",
	"exp.StaticCompatConfig.DropEveryNth": "staticcompat_test.go sweeps one or two loss rates, not the default three",
	"tcp.Config.InitialCwnd":              "TestMaxPktsStopsExactly starts a short transfer with a window of 10 to cap it at MaxPkts",
	"exp.FairnessConfig.DisablePool":      poolReason,
	"exp.MatrixConfig.DisablePool":        poolReason,
	"exp.StabilizationConfig.DisablePool": poolReason,
	"exp.MatrixConfig.Rate":               shrinkReason,
	"exp.MatrixConfig.OutageDur":          shrinkReason,
	"exp.OscillationConfig.Algos":         shrinkReason,
	"exp.OscillationConfig.Flows":         shrinkReason,
	"exp.OscillationConfig.Rate":          shrinkReason,
	"exp.OutageConfig.Backgrounds":        shrinkReason,
	"exp.OutageConfig.Rate":               shrinkReason,
	"exp.OutageConfig.CrowdStart":         shrinkReason,
	"exp.OutageConfig.CrowdDuration":      shrinkReason,
	"exp.OutageConfig.CrowdRate":          shrinkReason,
	"exp.SmoothnessConfig.Warmup":         shrinkReason,
	"exp.StabilizationConfig.Flows":       shrinkReason,
	"exp.StaticCompatConfig.Algos":        shrinkReason,
	"topology.Config.Delay":               substrateReason,
	"topology.Config.AccessRate":          substrateReason,
	"topology.Config.AccessDelay":         substrateReason,
	"topology.Config.PktSize":             substrateReason,
	"topology.Config.QueueFactor":         substrateReason,
	"topology.Config.REDMinFactor":        substrateReason,
	"topology.Config.REDMaxFactor":        substrateReason,
}

const (
	oracleReason    = "always zero, but bench/'s figures oracle hashes a FairnessPoint's %+v text, field names included, and only a change to the benchmark may re-record it"
	poolReason      = "the pooled-vs-unpooled determinism tests run with pooling off as their heap-allocation reference"
	shrinkReason    = "tests set it to a non-default value to shrink the run or sharpen what it checks"
	substrateReason = "a dumbbell substrate knob: ROADMAP item 18 tabulates the substrate against the paper's before its knobs become constants"
)

// TestInternalFieldsHaveWriters is TestInternalSurfaceHasUsers one level
// down: every exported field of an exported struct declared in a non-test
// file under internal/ must be written by some non-test .go file of the
// module. A write is a key or a positional element of a composite
// literal of the field's struct type (element types elided inside []T{…}
// and map[K]T{…} included), a field selected anywhere in the chain of an
// assignment, op=, ++ or -- target, or in the operand of &. Each write
// resolves to the field it selects (go/types over the whole module), so
// a same-named field of another struct keeps nothing. A write inside a
// method named fill is a default, not a setting, and does not count. A
// setting nothing sets has one value: make it a constant, or add a
// fieldTestOnly line saying why not.
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

	written := map[*types.Var]bool{}
	for _, p := range m.pkgs {
		field := func(obj types.Object) {
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				written[v.Origin()] = true
			}
		}
		var chain func(e ast.Expr)
		chain = func(e ast.Expr) {
			switch e := e.(type) {
			case *ast.SelectorExpr:
				if s, ok := p.info.Selections[e]; ok && s.Kind() == types.FieldVal {
					field(s.Obj())
				}
				chain(e.X)
			case *ast.IndexExpr:
				chain(e.X)
			case *ast.StarExpr:
				chain(e.X)
			case *ast.ParenExpr:
				chain(e.X)
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					// A fill method writing its own default is not a setting.
					return n.Recv == nil || n.Name.Name != "fill"
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						chain(e)
					}
				case *ast.IncDecStmt:
					chain(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						chain(n.X)
					}
				case *ast.CompositeLit:
					st, ok := p.info.TypeOf(n).Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							field(p.info.Uses[kv.Key.(*ast.Ident)])
						} else {
							field(st.Field(i))
						}
					}
				}
				return true
			})
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

// sourcePkg is one non-test package of the module, parsed and
// type-checked from source.
type sourcePkg struct {
	dir   string // slash-separated, relative to the module root
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// module is every non-test package of the module, dependencies first,
// checked in one types universe: an identifier anywhere resolves to the
// one object it names, whichever package declares it.
type module struct {
	fset *token.FileSet
	pkgs []*sourcePkg
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

// interfaceMethods returns every method of a module type that implements
// a method of an interface the type (or a pointer to it) satisfies: the
// interfaces the module's packages declare or spell, and those of every
// package they import, directly or not, error included.
func (m *module) interfaceMethods() []types.Object {
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

	var out []types.Object
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
					out = append(out, obj)
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
