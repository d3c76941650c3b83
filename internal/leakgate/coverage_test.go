package leakgate

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryGoroutinePackageRunsTheGate parses every Go file of the module
// and fails, naming the package, when a package whose non-test code has a
// go statement has no test that calls leakgate.Main with its import path.
// The gate sees only the packages whose TestMain runs it, so a new package
// that starts goroutines must join it. testdata directories and nested
// modules (perfbench) are skipped.
func TestEveryGoroutinePackageRunsTheGate(t *testing.T) {
	root := filepath.Join("..", "..")
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	var modPath string
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}
	if modPath == "" {
		t.Fatal("go.mod names no module")
	}

	spawns := map[string]string{} // import path -> position of its first go statement
	gated := map[string]bool{}    // import paths some test passes to leakgate.Main
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a module of its own
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := modPath
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		test := strings.HasSuffix(path, "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if _, seen := spawns[pkg]; !seen && !test {
					spawns[pkg] = fset.Position(n.Pos()).String()
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && test && sel.Sel.Name == "Main" {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == "leakgate" {
						for _, arg := range n.Args {
							if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
								if s, err := strconv.Unquote(lit.Value); err == nil {
									gated[s] = true
								}
							}
						}
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(spawns) == 0 {
		t.Fatal("found no go statement in the module; the walk looks broken")
	}
	pkgs := make([]string, 0, len(spawns))
	for pkg := range spawns {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		if !gated[pkg] {
			t.Errorf("%s starts goroutines (%s) but no test calls leakgate.Main with %q", pkg, spawns[pkg], pkg)
		}
	}
}
