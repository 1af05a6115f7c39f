package slowcc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
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
// file uses them, each with the reason. It is the only exemption
// TestInternalSurfaceHasUsers grants; an entry whose name has gained a
// user, or no longer exists, fails the test too.
var testOnly = map[string]string{
	"SACKTCPAlgo":       "exp: the documented Sack1 fidelity ablation (BenchmarkSACKAblation, EXPERIMENTS.md methodology note)",
	"ReadTSV":           "trace: WriteTSV's round-trip oracle, fuzzed by FuzzReadTSV",
	"ExplicitZero":      "topology: the documented sentinel for \"this field is zero, do not default it\"",
	"FkTCP":             "tcpmodel: the paper's closed form for f(k), the reference the Fig 13 tests compare against",
	"AggressivenessTCP": "tcpmodel: the paper's closed form for TCP(b) aggressiveness, the Fig 20 reference",
}

// TestInternalSurfaceHasUsers is TestRootSurfaceHasUsers one level
// down: every exported top-level func, type, var and const declared in
// a non-test file under internal/ must be named in some non-test .go
// file of the module — bench/, cmd/, examples/, the root package or
// internal/ itself — other than at its own declaration. Names match by
// identifier alone, so two packages exporting the same name can only
// keep one another, never delete one. To add an exported internal name,
// write its non-test user, or a testOnly line with a reason.
func TestInternalSurfaceHasUsers(t *testing.T) {
	fset := token.NewFileSet()
	decl := map[string][]token.Pos{} // exported internal/ name -> its declaring identifiers
	uses := map[string]int{}         // identifier -> occurrences in non-test files
	declare := func(id *ast.Ident) {
		if id.IsExported() {
			decl[id.Name] = append(decl[id.Name], id.Pos())
		}
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declare(d.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declare(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(id)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var orphans []string
	for name, at := range decl {
		used := uses[name] > len(at) // some occurrence besides the declarations themselves
		_, exempt := testOnly[name]
		switch {
		case !used && !exempt:
			orphans = append(orphans, name+"\t"+fset.Position(at[0]).String())
		case used && exempt:
			t.Errorf("testOnly lists %s, which a non-test file uses: drop the entry", name)
		}
	}
	for name, reason := range testOnly {
		if _, ok := decl[name]; !ok {
			t.Errorf("testOnly lists %s, which internal/ no longer exports: drop the entry", name)
		}
		if reason == "" {
			t.Errorf("testOnly entry %s gives no reason", name)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d of internal/'s %d exported names have no user in a non-test file; delete them, or add a testOnly line saying why a test needs them:\n\t%s",
			len(orphans), len(decl), strings.Join(orphans, "\n\t"))
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
	"sim.Budget.LivelockEvents": "safety check: a run stuck at one instant halts instead of spinning; tests set it to prove the halt",
	"obs.SweepEvent.Attempt":    "bench/trace.go reads it, and only a benchmark PR may edit bench/",
}

// TestInternalFieldsHaveWriters is TestInternalSurfaceHasUsers one level
// down: every exported field of an exported struct declared in a non-test
// file under internal/ must be written by some non-test .go file of the
// module. A write is a composite-literal key, a positional element of a
// literal of the field's type (element types elided inside []T{…} and
// map[K]T{…} included), any selector in the chain of an assignment,
// op=, ++ or -- target, and the operand of &. Fields match by name, so a
// collision can only keep a field. A setting nothing sets has one value:
// make it a constant, or add a fieldTestOnly line saying why not.
func TestInternalFieldsHaveWriters(t *testing.T) {
	fset := token.NewFileSet()
	type file struct {
		path string
		f    *ast.File
	}
	var files []file
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err == nil {
			files = append(files, file{filepath.ToSlash(path), f})
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every exported field of an exported internal/ struct, and each
	// struct type name's field names in order (for positional literals).
	fields := map[string]token.Pos{} // pkg.Type.Field -> declaration
	order := map[string][][]string{} // type name -> field names in order, one list per declaring struct
	for _, fl := range files {
		if !strings.HasPrefix(fl.path, "internal/") {
			continue
		}
		for _, d := range fl.f.Decls {
			g, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, s := range g.Specs {
				ts, ok := s.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				var names []string
				for _, fd := range st.Fields.List {
					if len(fd.Names) == 0 { // embedded: one positional slot
						names = append(names, "")
					}
					for _, id := range fd.Names {
						names = append(names, id.Name)
						if id.IsExported() {
							fields[fl.f.Name.Name+"."+ts.Name.Name+"."+id.Name] = id.Pos()
						}
					}
				}
				order[ts.Name.Name] = append(order[ts.Name.Name], names)
			}
		}
	}

	written := map[string]bool{}
	var chain func(e ast.Expr)
	chain = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.SelectorExpr:
			written[e.Sel.Name] = true
			chain(e.X)
		case *ast.IndexExpr:
			chain(e.X)
		case *ast.StarExpr:
			chain(e.X)
		case *ast.ParenExpr:
			chain(e.X)
		}
	}
	typeName := func(e ast.Expr) string {
		if s, ok := e.(*ast.StarExpr); ok {
			e = s.X
		}
		switch e := e.(type) {
		case *ast.Ident:
			return e.Name
		case *ast.SelectorExpr:
			return e.Sel.Name
		}
		return ""
	}
	// lit records the writes of one composite literal whose type is typ
	// (its own, or the element type its parent elided).
	var lit func(cl *ast.CompositeLit, typ ast.Expr)
	lit = func(cl *ast.CompositeLit, typ ast.Expr) {
		if cl.Type != nil {
			typ = cl.Type
		}
		var elem ast.Expr
		switch tt := typ.(type) {
		case *ast.ArrayType:
			elem = tt.Elt
		case *ast.MapType:
			elem = tt.Value
		}
		for i, e := range cl.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok && elem == nil {
					written[id.Name] = true
				}
				e = kv.Value
			} else if elem == nil {
				for _, names := range order[typeName(typ)] {
					if i < len(names) {
						written[names[i]] = true
					}
				}
			}
			if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
				e = u.X
			}
			if sub, ok := e.(*ast.CompositeLit); ok && sub.Type == nil {
				lit(sub, elem)
			}
		}
	}
	for _, fl := range files {
		ast.Inspect(fl.f, func(n ast.Node) bool {
			switch n := n.(type) {
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
				if n.Type != nil {
					lit(n, nil)
				}
			}
			return true
		})
	}

	var orphans []string
	for key, pos := range fields {
		name := key[strings.LastIndexByte(key, '.')+1:]
		_, exempt := fieldTestOnly[key]
		switch {
		case !written[name] && !exempt:
			orphans = append(orphans, key+"\t"+fset.Position(pos).String())
		case written[name] && exempt:
			t.Errorf("fieldTestOnly lists %s, which a non-test file writes: drop the entry", key)
		}
	}
	for key, reason := range fieldTestOnly {
		if _, ok := fields[key]; !ok {
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
