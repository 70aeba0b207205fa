package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// runPathPackages are the packages that seed generators once or more per
// simulated run. rand.NewSource fills math/rand's whole 607-word state
// (~13 µs, 5 KB) before the first draw; seeded.New returns the identical
// sequence for a few hundred nanoseconds, so these packages must use it.
var runPathPackages = []string{
	"../sim",
	"../adversary",
	"../runtime",
	"../faults",
}

// TestRunPathUsesSeeded fails on any rand.NewSource call in a non-test file
// of the run-path packages (subpackages included).
func TestRunPathUsesSeeded(t *testing.T) {
	for _, root := range runPathPackages {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			fset := token.NewFileSet()
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			for _, pos := range newSourceCalls(file) {
				t.Errorf("%s: rand.NewSource on the run path; use seeded.New (repro/internal/seeded), which returns the same sequence without filling the 607-word state",
					fset.Position(pos))
			}
			return nil
		})
		if err != nil {
			t.Fatalf("walk %s: %v", root, err)
		}
	}
}

// newSourceCalls returns the positions of NewSource calls through the
// file's math/rand import, whatever name it is imported under.
func newSourceCalls(file *ast.File) []token.Pos {
	name := ""
	for _, imp := range file.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "math/rand" {
			name = "rand"
			if imp.Name != nil {
				name = imp.Name.Name
			}
		}
	}
	if name == "" {
		return nil
	}
	var calls []token.Pos
	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "NewSource" {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); ok && x.Name == name {
			calls = append(calls, sel.Pos())
		}
		return true
	})
	return calls
}
