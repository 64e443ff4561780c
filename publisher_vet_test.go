package structix

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestOnePublisher is a vet-style source scan that keeps one publication
// half: snap.Publisher owns the dirty set, the codec and the chain stamp
// for both index families. Outside internal/snap no non-test file may call
// snap.Patch, and no package that imports internal/snap may declare a
// dirty-set field; the two index packages may declare no extent.Codec
// field and no markDirty. Publisher's Mark must not reach the facade's
// index method sets, where a caller could dirty slots by hand.
func TestOnePublisher(t *testing.T) {
	type field struct {
		pos  token.Position
		name string
	}
	dirtyFields := map[string][]field{} // by package directory
	importsSnap := map[string]bool{}
	familyFiles := 0
	eachGoFile(t, func(fset *token.FileSet, path string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasSuffix(path, "_test.go") || dir == "internal/snap" {
			return
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "structix/internal/snap" {
				importsSnap[dir] = true
			}
		}
		family := dir == "internal/oneindex" || dir == "internal/akindex"
		if family {
			familyFiles++
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "snap" && n.Sel.Name == "Patch" {
					t.Errorf("%s: calls snap.Patch; publish through snap.Publisher", fset.Position(n.Pos()))
				}
			case *ast.FuncDecl:
				if family && n.Name.Name == "markDirty" {
					t.Errorf("%s: declares markDirty; Mark the index's snap.Publisher", fset.Position(n.Pos()))
				}
			case *ast.StructType:
				for _, fl := range n.Fields.List {
					if sel, ok := fl.Type.(*ast.SelectorExpr); ok && family && sel.Sel.Name == "Codec" {
						t.Errorf("%s: declares a codec field; the snap.Publisher holds it", fset.Position(fl.Pos()))
					}
					for _, name := range fl.Names {
						if strings.Contains(strings.ToLower(name.Name), "dirty") {
							dirtyFields[dir] = append(dirtyFields[dir], field{fset.Position(name.Pos()), name.Name})
						}
					}
				}
			}
			return true
		})
	})
	for dir, fields := range dirtyFields {
		if importsSnap[dir] {
			for _, fl := range fields {
				t.Errorf("%s: %s declares dirty-set state; the snap.Publisher holds it", fl.pos, fl.name)
			}
		}
	}
	if familyFiles == 0 || !importsSnap["internal/oneindex"] || !importsSnap["internal/akindex"] {
		t.Fatalf("scanned %d index-family files: the scan covered nothing", familyFiles)
	}
	for _, ty := range []reflect.Type{reflect.TypeOf(&OneIndex{}), reflect.TypeOf(&AkIndex{})} {
		if _, ok := ty.MethodByName("Mark"); ok {
			t.Errorf("%s has a Mark method: hold the snap.Publisher in an unexported field, not embedded", ty)
		}
	}
}
