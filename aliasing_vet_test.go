package structix

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Snapshot accessors that hand out storage shared with the snapshot
// itself. Their results are read-only by contract (see the aliasing
// contract in the internal/snap Snapshot doc); mutating them would
// corrupt every concurrent reader of the epoch.
var readOnlyAccessors = map[string]bool{
	"ISucc":      true, // []INodeID shared with the snapshot
	"ExtentView": true, // extent.View over shared storage
	"Encoded":    true, // raw encoding shared with the View
	"Changed":    true, // dirty-slot list shared with the snapshot
}

// TestNoCallerMutatesSharedViews is a vet-style source scan: no file in
// the module may assign through, append to, or otherwise write into the
// result of a read-only snapshot accessor. It catches the direct forms
// (`s.ISucc(i)[0] = x`, `append(s.ISucc(i), ...)`, `copy(s.Changed(), ...)`,
// `sort.Slice(s.ISucc(i), ...)`); indirect aliasing through locals is
// covered by the runtime copy tests next to the Snapshot implementation.
func TestNoCallerMutatesSharedViews(t *testing.T) {
	var violations []string
	eachGoFile(t, func(fset *token.FileSet, path string, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if root := indexRoot(lhs); root != nil && isReadOnlyCall(root) {
						violations = append(violations,
							fmt.Sprintf("%s: assignment into %s", fset.Position(lhs.Pos()), accessorName(root)))
					}
				}
			case *ast.CallExpr:
				callee := calleeName(n)
				mutating := callee == "append" || callee == "copy" || callee == "clear" ||
					strings.HasPrefix(callee, "sort.") || strings.HasPrefix(callee, "slices.Sort")
				if !mutating {
					return true
				}
				// Only the argument positions these functions write through.
				args := n.Args[:1]
				if callee == "clear" || strings.HasPrefix(callee, "sort.") || strings.HasPrefix(callee, "slices.Sort") {
					args = n.Args
				}
				for _, a := range args {
					if isReadOnlyCall(a) {
						violations = append(violations,
							fmt.Sprintf("%s: %s over %s", fset.Position(a.Pos()), callee, accessorName(a)))
					}
				}
			}
			return true
		})
	})
	for _, v := range violations {
		t.Errorf("shared snapshot storage mutated: %s", v)
	}
}

// eachGoFile parses every .go file of the module (hidden and testdata
// directories skipped) and hands it to fn — the walk the vet-style source
// scans share.
func eachGoFile(t *testing.T, fn func(fset *token.FileSet, path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fn(fset, path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat("internal/snap/snap.go"); err != nil {
		t.Fatal("scan ran outside the module root; it covered nothing")
	}
}

// indexRoot unwraps s.X(i)[j][k]... to the innermost indexed expression.
func indexRoot(e ast.Expr) ast.Expr {
	ix, ok := e.(*ast.IndexExpr)
	if !ok {
		return nil
	}
	for {
		inner, ok := ix.X.(*ast.IndexExpr)
		if !ok {
			return ix.X
		}
		ix = inner
	}
}

// isReadOnlyCall reports whether e is a call of a read-only accessor.
func isReadOnlyCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && readOnlyAccessors[sel.Sel.Name]
}

func accessorName(e ast.Expr) string {
	call := e.(*ast.CallExpr)
	return call.Fun.(*ast.SelectorExpr).Sel.Name + "()"
}

func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if pkg, ok := fun.X.(*ast.Ident); ok {
			return pkg.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return ""
}
