package structix

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestQueryReadsSnapshotsOnly is a vet-style source scan that keeps one
// read model: every index evaluator reads an immutable snapshot. No
// non-test file of internal/query may import a live index package, and
// the root facade may export no Eval* or Count* function taking a live
// *OneIndex or *AkIndex. A second read stack over the mutable indexes
// cannot come back unnoticed.
func TestQueryReadsSnapshotsOnly(t *testing.T) {
	queryFiles, facadeReaders := 0, 0
	eachGoFile(t, func(fset *token.FileSet, path string, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") {
			return
		}
		switch filepath.ToSlash(filepath.Dir(path)) {
		case "internal/query":
			queryFiles++
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "structix/internal/oneindex" || p == "structix/internal/akindex" {
					t.Errorf("%s: internal/query imports %s; evaluate a snapshot instead", fset.Position(imp.Pos()), p)
				}
			}
		case ".":
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Recv != nil || !fn.Name.IsExported() ||
					!(strings.HasPrefix(fn.Name.Name, "Eval") || strings.HasPrefix(fn.Name.Name, "Count")) {
					continue
				}
				facadeReaders++
				for _, field := range fn.Type.Params.List {
					if name := liveIndexType(field.Type); name != "" {
						t.Errorf("%s: %s takes a live %s; take a *Snapshot", fset.Position(fn.Pos()), fn.Name.Name, name)
					}
				}
			}
		}
	})
	if queryFiles == 0 || facadeReaders == 0 {
		t.Fatalf("scanned %d internal/query files and %d facade readers: the scan covered nothing", queryFiles, facadeReaders)
	}
}

// TestNoValueRoute keeps the planner's routes structural: the strong
// DataGuide and the inverted value index are gone, and with them the
// planner's value-first route. No non-test file may import either
// package or declare or use a name that route needed, and query.Planner
// may declare no Values field (a use of one cannot compile without the
// declaration). A second index family beside the two the paper maintains
// cannot come back unnoticed, nor can a reader of a live graph that goes
// stale at a store's first write.
func TestNoValueRoute(t *testing.T) {
	gonePkgs := map[string]bool{"structix/internal/dataguide": true, "structix/internal/valindex": true}
	goneNames := map[string]bool{
		"ValueAccelerator": true, "StrategyValueIndex": true, "valueAccelerable": true,
		"BuildValueIndex": true, "BuildDataGuide": true, "ErrDataGuideTooLarge": true,
	}
	planners := 0
	eachGoFile(t, func(fset *token.FileSet, path string, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") {
			return
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); gonePkgs[p] {
				t.Errorf("%s: imports %s, which was removed", fset.Position(imp.Pos()), p)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				if goneNames[x.Name] {
					t.Errorf("%s: %s is back; it went with the DataGuide, the value index and the value route", fset.Position(x.Pos()), x.Name)
				}
			case *ast.TypeSpec:
				st, ok := x.Type.(*ast.StructType)
				if !ok || x.Name.Name != "Planner" {
					return true
				}
				planners++
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if name.Name == "Values" {
							t.Errorf("%s: Planner declares a Values field; the planner has no value route", fset.Position(name.Pos()))
						}
					}
				}
			}
			return true
		})
	})
	if planners == 0 {
		t.Fatal("scan found no Planner struct: it covered nothing")
	}
}

// liveIndexType names the live index type e points to — *OneIndex,
// *AkIndex, *oneindex.Index or *akindex.Index — or returns "".
func liveIndexType(e ast.Expr) string {
	star, ok := e.(*ast.StarExpr)
	if !ok {
		return ""
	}
	switch x := star.X.(type) {
	case *ast.Ident:
		if x.Name == "OneIndex" || x.Name == "AkIndex" {
			return "*" + x.Name
		}
	case *ast.SelectorExpr:
		if pkg, ok := x.X.(*ast.Ident); ok && x.Sel.Name == "Index" && (pkg.Name == "oneindex" || pkg.Name == "akindex") {
			return "*" + pkg.Name + ".Index"
		}
	}
	return ""
}

// TestOneSnapshotWalk keeps one path evaluator: in the non-test files of
// internal/query only the automaton walks, autoWalkDFA and autoWalkNFA,
// read a snapshot's successor lists (ISucc). Every other snapshot reader
// runs a compiled program, so a second walker over index snapshots — an
// interpreter, a navigator — cannot come back unnoticed.
func TestOneSnapshotWalk(t *testing.T) {
	readers := map[string]bool{}
	eachGoFile(t, func(fset *token.FileSet, path string, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") || filepath.ToSlash(filepath.Dir(path)) != "internal/query" {
			return
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "ISucc" {
					readers[fn.Name.Name] = true
					if name := fn.Name.Name; name != "autoWalkDFA" && name != "autoWalkNFA" {
						t.Errorf("%s: %s reads ISucc; walk snapshots with the compiled automaton", fset.Position(sel.Pos()), name)
					}
				}
				return true
			})
		}
	})
	if !readers["autoWalkDFA"] || !readers["autoWalkNFA"] {
		t.Fatalf("ISucc readers %v: the scan missed the automaton walks", readers)
	}
}
