package stats

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestPercentileCallersUseHundredScale pins the Percentile contract at its
// call sites: q is on the [0,100] scale, so a literal strictly between 0
// and 1 (Percentile(0.99) meaning "p99") asks for a percentile below the
// first and silently reports a near-minimum latency. The test parses every
// non-test .go file of the root module, skipping the bench/ module, and
// fails on such a call.
func TestPercentileCallersUseHundredScale(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found at %s: %v", root, err)
	}
	fset := token.NewFileSet()
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			name := d.Name()
			if strings.HasPrefix(name, ".") || name == "testdata" || path == filepath.Join(root, "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Percentile" {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || (lit.Kind != token.FLOAT && lit.Kind != token.INT) {
				return true
			}
			q, err := strconv.ParseFloat(lit.Value, 64)
			if err == nil && q > 0 && q < 1 {
				rel, _ := filepath.Rel(root, fset.Position(call.Pos()).Filename)
				t.Errorf("%s:%d: Percentile(%s) asks for the %sth percentile; q is on the [0,100] scale",
					rel, fset.Position(call.Pos()).Line, lit.Value, lit.Value)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked only %d files under %s; the module layout changed", files, root)
	}
}
