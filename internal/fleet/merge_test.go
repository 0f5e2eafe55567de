package fleet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneSignalMerge pins the day loop's single way into the tracker:
// exactly one function in this package names report.Server's Ingest or
// IngestBatch, so every phase's signals are ingested, counted and traced
// the same way. A phase that calls the server itself fails here.
func TestOneSignalMerge(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var sites []string
	funcs := map[string]bool{}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if ok && (sel.Sel.Name == "Ingest" || sel.Sel.Name == "IngestBatch") {
					sites = append(sites, fset.Position(sel.Pos()).String()+" in "+fn.Name.Name)
					funcs[fn.Name.Name] = true
				}
				return true
			})
		}
	}
	if len(funcs) != 1 {
		t.Fatalf("%d functions hand signals to the report server, want 1 (merge):\n  %s",
			len(funcs), strings.Join(sites, "\n  "))
	}
}
