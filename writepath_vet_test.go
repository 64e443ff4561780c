package structix

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestOneWritePath is a vet-style check that keeps one write path: every
// store write is a journal record, applied by apply alone — on the leader
// (Shard.write), in a shard's recovery replay and in a follower's
// ApplyRecord — and journaled by commit alone. It type-checks the root
// package and the two packages that drive a store, internal/server and
// internal/repl, and fails
//
//   - when a root function other than apply calls an index mutator or
//     opscript.Apply (ApplyOps, which runs a script against a caller's
//     own index and no store, is the one exception);
//   - when a function other than the root's commit calls a wal.Log append
//     (bench/ times AppendEdges alone and is not scanned);
//   - when internal/server calls other than exactly one store write
//     method;
//   - when shard.Map.Fold, the one fold of a record's per-shard outcomes,
//     is called by other than DB.write and the server's respondUpdate, or
//     internal/server re-bases ids by itself (Map.Globalize, or any
//     other Map method named Globalize*) — one cross-shard rule;
//   - when DB declares a lock field: its parts commit per shard, with no
//     store-wide coordination;
//   - when Shard exports a write other than WriteWindowed (the server's
//     committers), ApplyRecord (replication) and Update (in-memory
//     access to the live index) — one write surface, the DB's;
//   - when a name the one write path, the one cross-shard rule or the one
//     store type replaced is declared or used anywhere, or SplitEdges —
//     kept because bench/ times it — is called outside internal/shard.
func TestOneWritePath(t *testing.T) {
	mutators := map[string]bool{
		"ApplyBatch": true, "InsertEdge": true, "DeleteEdge": true, "InsertNode": true,
		"DeleteNode": true, "DeleteSubgraph": true, "AddSubgraph": true,
	}
	storeWrites := []string{
		"ApplyBatch", "ApplyScript", "InsertEdge", "DeleteEdge", "InsertNode", "DeleteNode", "DeleteSubtree",
		"AddSubgraph", "ApplyRecord", "Update", "WriteWindowed",
	}
	shardWrites := []string{"WriteWindowed", "ApplyRecord", "Update"}
	for _, name := range storeWrites {
		_, onDB := reflect.TypeOf(&DB{}).MethodByName(name)
		_, onShard := reflect.TypeOf(&Shard{}).MethodByName(name)
		if !onDB && !onShard {
			t.Fatalf("neither DB nor Shard has the write method %s: the list has rotted", name)
		}
		if onShard && !slices.Contains(shardWrites, name) {
			t.Errorf("Shard exports the write %s; writes in global ids go through DB", name)
		}
	}
	isStore := func(recv types.Type) bool {
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		n, ok := recv.(*types.Named)
		return ok && n.Obj().Pkg().Path() == "structix" && (n.Obj().Name() == "DB" || n.Obj().Name() == "Shard")
	}

	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	serverWrites := map[string]bool{}
	folds := map[string]bool{}
	for _, dir := range []string{".", "internal/server", "internal/repl"} {
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
		pkg, err := conf.Check("structix/"+dir, fset, files, info)
		if err != nil {
			t.Fatal(err)
		}
		if dir == "." {
			st := pkg.Scope().Lookup("DB").Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				if ft := strings.TrimPrefix(st.Field(i).Type().String(), "*"); ft == "sync.Mutex" || ft == "sync.RWMutex" {
					t.Errorf("DB.%s is a %s; a record's parts commit per shard, uncoordinated", st.Field(i).Name(), ft)
				}
			}
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
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					fn, ok := info.Uses[sel.Sel].(*types.Func)
					if !ok || fn.Pkg() == nil {
						return true
					}
					at := fset.Position(sel.Pos())
					name, pkg := fn.Name(), fn.Pkg().Path()
					s := info.Selections[sel]
					switch {
					case s != nil && pkg == "structix/internal/wal" && strings.HasPrefix(name, "Append"):
						if dir != "." || fd.Name.Name != "commit" {
							t.Errorf("%s: %s calls wal.Log.%s; only commit journals", at, fd.Name.Name, name)
						}
					case dir == "." && (s != nil && mutators[name] && !isStore(s.Recv()) ||
						s == nil && pkg == "structix/internal/opscript" && strings.HasPrefix(name, "Apply")):
						if fd.Name.Name != "apply" && fd.Name.Name != "ApplyOps" {
							t.Errorf("%s: %s calls %s; only apply changes a store's index", at, fd.Name.Name, name)
						}
					case dir == "internal/server" && s != nil && isStore(s.Recv()) && slices.Contains(storeWrites, name):
						serverWrites[name] = true
					case pkg == "structix/internal/shard" && name == "Fold":
						folds[caller] = true
					case dir == "internal/server" && pkg == "structix/internal/shard" && strings.HasPrefix(name, "Globalize"):
						t.Errorf("%s: %s calls Map.%s; the server's outcomes re-base through Map.Fold", at, caller, name)
					}
					return true
				})
			}
		}
	}
	if len(serverWrites) != 1 {
		t.Errorf("internal/server calls %d store write methods %v; it writes through exactly one", len(serverWrites), serverWrites)
	}
	if want := map[string]bool{"DB.write": true, "Server.respondUpdate": true}; !reflect.DeepEqual(folds, want) {
		t.Errorf("shard.Map.Fold is called by %v; want exactly %v", folds, want)
	}

	replaced := map[string]bool{
		"replayRecord": true, "graftPayload": true, "ApplyBatchWindowed": true, "ApplyScriptWindowed": true,
		"EdgeOpOf": true, "RouteScript": true, "GlobalizeBatchError": true, "GlobalizeOpError": true,
		"GlobalizeEdgeOp": true, "GlobalizeOp": true, "AppendScript": true, "AppendSubgraph": true,
		"AppendRecord": true, "commitEdges": true, "ValidateBatch": true, "crossShardReply": true,
		"ShardedDB": true, "WrapDB": true, "OpenSharded": true, "NewSharded": true,
		"aggregateStats": true, "labelNames": true, "AddSubgraphNamed": true, "DeleteSubtreeNamed": true,
	}
	eachGoFile(t, func(fset *token.FileSet, path string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(path))
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if replaced[id.Name] {
					t.Errorf("%s: %s is left; the one write path or the one store type replaced it", fset.Position(id.Pos()), id.Name)
				}
				if id.Name == "SplitEdges" && dir != "internal/shard" && dir != "bench" {
					t.Errorf("%s: routes through SplitEdges; use shard.Map.Route", fset.Position(id.Pos()))
				}
			}
			return true
		})
	})
}
