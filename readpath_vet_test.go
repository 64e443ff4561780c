package structix

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestOneReadPath is a vet-style check that keeps one read path: one
// evaluator per question on a compiled program (query.Compiled's Eval,
// Count, Candidates, Selectivity and EvalSnapshotFootprint) and one
// scatter-gather over a store's shards (ShardedSnapshot.Gather), shared
// by the store and the server. It fails
//
//   - when a non-test file outside the root package calls
//     MergeShardResults or shard.Map.AppendGlobal — the gather's merge
//     and its id translator — other than bench/, which times both, and
//     internal/shard, AppendGlobal's own package (its Fold translates a
//     record's NewNodes);
//   - when Gather is called by other than DB.Eval (DB.Count on N > 1
//     shards counts its result) and the server's engine.run;
//   - when internal/server loops over shard snapshots itself: a for or
//     range statement there evaluates a compiled program (a
//     query.Compiled method taking a snapshot, or engine.runShard), a
//     Compiled snapshot method is called outside runShard, or runShard
//     outside the function handed to Gather;
//   - when a read name the one read path replaced is declared or used
//     anywhere, or comes back as a method or package-level function.
func TestOneReadPath(t *testing.T) {
	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	isSnapshot := func(typ types.Type) bool {
		if p, ok := typ.(*types.Pointer); ok {
			typ = p.Elem()
		}
		n, ok := typ.(*types.Named)
		return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "structix/internal/snap" && n.Obj().Name() == "Snapshot"
	}
	// evaluates reports whether fn evaluates a compiled program on a
	// snapshot: a query.Compiled method with a *snap.Snapshot parameter,
	// or the server's per-shard evaluation.
	evaluates := func(fn *types.Func) bool {
		if fn.Name() == "runShard" {
			return true
		}
		sig := fn.Type().(*types.Signature)
		if sig.Recv() == nil || !strings.HasSuffix(sig.Recv().Type().String(), "structix/internal/query.Compiled") {
			return false
		}
		for i := 0; i < sig.Params().Len(); i++ {
			if isSnapshot(sig.Params().At(i).Type()) {
				return true
			}
		}
		return false
	}

	gathers := map[string]bool{}
	serverEvals := 0
	for _, dir := range []string{".", "internal/server"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, p := range paths {
			if !strings.HasSuffix(p, "_test.go") {
				f, err := parser.ParseFile(fset, p, nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
		}
		if len(files) == 0 {
			t.Fatalf("%s: no files; the scan ran outside the module root", dir)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
		path := "structix"
		if dir != "." {
			path += "/" + dir
		}
		if _, err := conf.Check(path, fset, files, info); err != nil {
			t.Fatal(err)
		}
		calledFn := func(n ast.Node) *types.Func {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return nil
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return nil
			}
			fn, _ := info.Uses[sel.Sel].(*types.Func)
			return fn
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				caller := fd.Name.Name
				if fd.Recv != nil {
					recv := fd.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					caller = recv.(*ast.Ident).Name + "." + caller
				}
				// gatherArgs holds the function literals handed to Gather:
				// the one place the server may evaluate per shard.
				gatherArgs := map[ast.Node]bool{}
				var stack []ast.Node
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if n == nil {
						stack = stack[:len(stack)-1]
						return true
					}
					stack = append(stack, n)
					fn := calledFn(n)
					if fn == nil || fn.Pkg() == nil {
						return true
					}
					at := fset.Position(n.Pos())
					if fn.Name() == "Gather" && fn.Pkg().Path() == "structix" {
						gathers[caller] = true
						for _, arg := range n.(*ast.CallExpr).Args {
							gatherArgs[arg] = true
						}
					}
					if dir != "internal/server" || !evaluates(fn) {
						return true
					}
					serverEvals++
					inGather := false
					for _, outer := range stack {
						switch outer.(type) {
						case *ast.ForStmt, *ast.RangeStmt:
							t.Errorf("%s: %s calls %s in a loop; evaluate per shard through ShardedSnapshot.Gather", at, caller, fn.Name())
						}
						inGather = inGather || gatherArgs[outer]
					}
					switch {
					case fn.Name() == "runShard" && !inGather:
						t.Errorf("%s: %s calls runShard outside the function handed to Gather", at, caller)
					case fn.Name() != "runShard" && caller != "engine.runShard":
						t.Errorf("%s: %s calls Compiled.%s; the server evaluates in runShard alone", at, caller, fn.Name())
					}
					return true
				})
			}
		}
	}
	if want := map[string]bool{"DB.Eval": true, "engine.run": true}; !reflect.DeepEqual(gathers, want) {
		t.Errorf("ShardedSnapshot.Gather is called by %v; want exactly %v", gathers, want)
	}
	if serverEvals == 0 {
		t.Error("internal/server evaluates no compiled program; the scan missed the engine")
	}

	// The names the one read path replaced.
	replaced := map[string]bool{
		"EvalSnapshotCtx": true, "EvalSnapshotInto": true, "EvalSnapshotIntoCtx": true,
		"SnapshotCandidates": true, "CountSnapshot": true, "CountSnapshotCtx": true,
		"EvalCtx": true, "CountCtx": true, "GlobalizeNodes": true,
	}
	eachGoFile(t, func(fset *token.FileSet, path string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(path))
		test := strings.HasSuffix(path, "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && replaced[id.Name] {
				t.Errorf("%s: %s is left; the one read path replaced it", fset.Position(id.Pos()), id.Name)
			}
			if sel, ok := n.(*ast.SelectorExpr); ok && !test && dir != "." && dir != "bench" && dir != "internal/shard" &&
				(sel.Sel.Name == "MergeShardResults" || sel.Sel.Name == "AppendGlobal") {
				t.Errorf("%s: calls %s; results gather through ShardedSnapshot.Gather", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	})
	// Names kept for another meaning must not come back in the old one: the
	// facade's EvalSnapshot is the one *Path convenience, and Selectivity
	// is a method of the compiled program.
	q, err := conf.Importer.Import("structix/internal/query")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"EvalSnapshot", "Selectivity"} {
		if q.Scope().Lookup(name) != nil {
			t.Errorf("internal/query declares %s again; evaluate through a Compiled method", name)
		}
	}
	for typ, names := range map[reflect.Type][]string{
		reflect.TypeOf(&CompiledPath{}):    {"EvalSnapshot"},
		reflect.TypeOf(&ShardedSnapshot{}): {"Eval", "Count"},
	} {
		for _, name := range names {
			if _, ok := typ.MethodByName(name); ok {
				t.Errorf("%s has the method %s again; the one read path replaced it", typ, name)
			}
		}
	}
	if root, err := conf.Importer.Import("structix"); err != nil {
		t.Fatal(err)
	} else if root.Scope().Lookup("Selectivity") != nil {
		t.Error("the facade declares Selectivity again; it is a CompiledPath method")
	}
}
