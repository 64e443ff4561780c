package structix

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneFrameParser is a vet-style source scan that keeps the journal's
// frame format ([len][crc32c][payload]) in one reader and one sealer:
// outside internal/wal no non-test code may touch hash/crc32 or pick a
// frame header apart (a LittleEndian Uint32 / PutUint32 over x[0:4] or
// x[4:8]), and inside it crc32.Checksum is called at most twice — the
// verify in ReadFrame and the seal in SealFrame. A fifth hand-copied
// parser cannot come back unnoticed.
func TestOneFrameParser(t *testing.T) {
	checksums := 0
	eachGoFile(t, func(fset *token.FileSet, path string, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") {
			return
		}
		inWAL := filepath.ToSlash(filepath.Dir(path)) == "internal/wal"
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "crc32" {
					if !inWAL {
						t.Errorf("%s: crc32.%s outside internal/wal; read frames with wal.ReadFrame, seal them with wal.SealFrame", fset.Position(n.Pos()), n.Sel.Name)
					} else if n.Sel.Name == "Checksum" {
						checksums++
					}
				}
			case *ast.CallExpr:
				if fun, ok := n.Fun.(*ast.SelectorExpr); ok && !inWAL && len(n.Args) > 0 &&
					(fun.Sel.Name == "Uint32" || fun.Sel.Name == "PutUint32") && isHeaderWord(n.Args[0]) {
					t.Errorf("%s: %s over a frame-header word outside internal/wal", fset.Position(n.Pos()), fun.Sel.Name)
				}
			}
			return true
		})
	})
	if checksums > 2 {
		t.Errorf("internal/wal calls crc32.Checksum %d times, want at most 2 (one verify, one seal)", checksums)
	}
}

// isHeaderWord reports whether e slices out one of the two header words,
// x[0:4] or x[4:8].
func isHeaderWord(e ast.Expr) bool {
	sl, ok := e.(*ast.SliceExpr)
	if !ok || sl.Low == nil || sl.High == nil {
		return false
	}
	bounds := fmt.Sprint(litValue(sl.Low), ":", litValue(sl.High))
	return bounds == "0:4" || bounds == "4:8"
}

func litValue(e ast.Expr) string {
	if lit, ok := e.(*ast.BasicLit); ok {
		return lit.Value
	}
	return "?"
}
