package structix

import (
	"fmt"
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

// TestOneOpDriver is a vet-style check that keeps one op driver:
// internal/maint decomposes every edge, node and subtree update for both
// index families, which keep only a round kernel. It type-checks the two
// family packages' non-test files and fails on any call of a graph
// mutator or of the subtree helpers the decomposition uses — those run in
// internal/maint alone — and it fails when a method of maint.Kernel shows
// up on the facade's OneIndex or AkIndex, where a caller could drive half
// a round by hand.
func TestOneOpDriver(t *testing.T) {
	banned := map[string]bool{
		"AddEdge": true, "DeleteEdge": true, "RemoveNode": true, "AddNodeL": true,
		"InsertNodes": true, "ValidateOps": true, "Extract": true,
	}
	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	var kernel *types.Interface
	for _, dir := range []string{"internal/oneindex", "internal/akindex"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, p := range paths {
			if strings.HasSuffix(p, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, p, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			t.Fatalf("%s: no files; the scan ran outside the module root", dir)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		pkg, err := conf.Check("structix/"+dir, fset, files, info)
		if err != nil {
			t.Fatal(err)
		}
		var calls []string
		for id, obj := range info.Uses {
			fn, ok := obj.(*types.Func)
			if ok && fn.Pkg() != nil && fn.Pkg().Path() == "structix/internal/graph" && banned[fn.Name()] {
				calls = append(calls, fmt.Sprintf("%s: calls graph %s", fset.Position(id.Pos()), fn.Name()))
			}
		}
		slices.Sort(calls)
		for _, c := range calls {
			t.Errorf("%s; the op driver in internal/maint mutates the graph", c)
		}
		var k *types.Interface
		for _, imp := range pkg.Imports() {
			if imp.Path() == "structix/internal/maint" {
				if obj := imp.Scope().Lookup("Kernel"); obj != nil {
					k, _ = obj.Type().Underlying().(*types.Interface)
				}
			}
		}
		if k == nil {
			t.Errorf("%s does not run on internal/maint's Kernel", dir)
			continue
		}
		kernel = k
	}
	if kernel == nil {
		return
	}
	for _, ty := range []reflect.Type{reflect.TypeOf(&OneIndex{}), reflect.TypeOf(&AkIndex{})} {
		for i := 0; i < kernel.NumMethods(); i++ {
			if name := kernel.Method(i).Name(); func() bool { _, ok := ty.MethodByName(name); return ok }() {
				t.Errorf("%s has the kernel method %s: implement maint.Kernel on an unexported type", ty, name)
			}
		}
	}
}
