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

// TestNoValueRoute keeps the planner's routes structural and the index
// families to the two the paper maintains: the strong DataGuide, the
// inverted value index with the planner's value-first route, and the
// D(k)-index are gone. No non-test file may import a removed package or
// declare or use a name that went with it, and query.Planner may declare
// no Values field (a use of one cannot compile without the declaration).
// A third index family cannot come back unnoticed, nor can a reader of a
// live graph that goes stale at a store's first write.
func TestNoValueRoute(t *testing.T) {
	const (
		valueRoute = "the DataGuide, the value index and the value route"
		dk         = "the D(k)-index"
	)
	gonePkgs := map[string]string{
		"structix/internal/dataguide": valueRoute, "structix/internal/valindex": valueRoute,
		"structix/internal/dkindex": dk,
	}
	goneNames := map[string]string{
		"ValueAccelerator": valueRoute, "StrategyValueIndex": valueRoute, "valueAccelerable": valueRoute,
		"BuildValueIndex": valueRoute, "BuildDataGuide": valueRoute, "ErrDataGuideTooLarge": valueRoute,
		"DkIndex": dk, "DkConfig": dk, "BuildDkIndex": dk, "RunDk": dk, "ReportDk": dk,
		"NewValidator": dk,
	}
	planners := 0
	eachGoFile(t, func(fset *token.FileSet, path string, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") {
			return
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if by, gone := gonePkgs[p]; gone {
				t.Errorf("%s: imports %s, which was removed with %s", fset.Position(imp.Pos()), p, by)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				if by, gone := goneNames[x.Name]; gone {
					t.Errorf("%s: %s is back; it went with %s", fset.Position(x.Pos()), x.Name, by)
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

// TestNoServingKnobs keeps a served store to one configuration: the
// snapshot extent codec, the interval-fsync period, and the server's
// body cap, Retry-After hint and result-cache bound are constants, not
// settings. No non-test file may declare those fields on
// structix.Options, wal.Options or server.Config, declare or use the
// codec setters and parsers, or define an "extents" flag. An option that
// no caller sets cannot come back unnoticed.
func TestNoServingKnobs(t *testing.T) {
	goneFields := map[string]map[string]bool{
		"./Options":              {"Extents": true, "SyncInterval": true},
		"internal/wal/Options":   {"Interval": true},
		"internal/server/Config": {"MaxBodyBytes": true, "RetryAfter": true, "QueryCacheEntries": true},
	}
	goneNames := map[string]bool{
		"SetExtentCodec": true, "setExtentCodec": true, "ParseExtentCodec": true, "ParseCodec": true,
		"ExtentCodec": true, "ExtentsDense": true, "ExtentsCompressed": true,
	}
	flagDefs := map[string]bool{"String": true, "StringVar": true, "Var": true, "Func": true, "TextVar": true}
	structs := 0
	eachGoFile(t, func(fset *token.FileSet, path string, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") {
			return
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				if goneNames[x.Name] {
					t.Errorf("%s: %s is back; a served store freezes dense extents and has no codec setting", fset.Position(x.Pos()), x.Name)
				}
			case *ast.TypeSpec:
				gone, ok := goneFields[dir+"/"+x.Name.Name]
				st, isStruct := x.Type.(*ast.StructType)
				if !ok || !isStruct {
					return true
				}
				structs++
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if gone[name.Name] {
							t.Errorf("%s: %s declares %s again; it is a constant, not a setting", fset.Position(name.Pos()), x.Name.Name, name.Name)
						}
					}
				}
			case *ast.CallExpr:
				sel, ok := x.Fun.(*ast.SelectorExpr)
				if !ok || !flagDefs[sel.Sel.Name] || len(x.Args) == 0 {
					return true
				}
				// The flag name is the first argument, or the second after
				// a StringVar/Var/TextVar destination.
				for _, arg := range x.Args[:min(2, len(x.Args))] {
					if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if name, _ := strconv.Unquote(lit.Value); name == "extents" {
							t.Errorf("%s: defines an -extents flag again", fset.Position(x.Pos()))
						}
					}
				}
			}
			return true
		})
	})
	if structs != len(goneFields) {
		t.Fatalf("scan found %d of the %d option structs: it covered too little", structs, len(goneFields))
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
