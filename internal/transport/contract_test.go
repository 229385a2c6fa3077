package transport

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// allowedProbes are the only capability probes the module's program code
// may make: a type assertion or type switch case naming an interface of this
// package, keyed "<file from the module root>:<interface>". Faulty switches
// on the in-memory switch's dedup, and Client.CallBatch uses a fabric's
// batch send when it has one (BatchSender says why it stays optional).
// Everything else a caller relies on is a method of Transport, which a
// wrapper that embeds a Transport cannot drop.
var allowedProbes = []string{
	"internal/transport/client.go:BatchSender",
	"internal/transport/fault.go:Deduper",
}

// TestNoCapabilityProbes parses every non-test Go file of the module (not
// nested modules such as benchmark/) and fails on a type assertion or type
// switch case to an interface of this package other than allowedProbes. It
// also fails when an allowed probe is gone, so the list stays exact.
func TestNoCapabilityProbes(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	module, _, _ := strings.Cut(strings.TrimPrefix(string(mod), "module "), "\n")
	self := strings.TrimSpace(module) + "/internal/transport"

	fset := token.NewFileSet()
	files := map[string]*ast.File{} // by path from the module root
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != root && err == nil {
				return filepath.SkipDir // a module of its own
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		files[filepath.ToSlash(rel)] = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	ifaces := map[string]bool{}
	for rel, f := range files {
		if filepath.ToSlash(filepath.Dir(rel)) != "internal/transport" {
			continue
		}
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						if _, ok := ts.Type.(*ast.InterfaceType); ok {
							ifaces[ts.Name.Name] = true
						}
					}
				}
			}
		}
	}
	if !ifaces["Transport"] || !ifaces["BatchSender"] {
		t.Fatalf("found the interfaces %v in package transport; the walk missed its files", ifaces)
	}

	var found []string
	for rel, f := range files {
		inSelf := filepath.ToSlash(filepath.Dir(rel)) == "internal/transport"
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == self {
				local = "transport"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		names := func(e ast.Expr) string {
			switch e := e.(type) {
			case *ast.Ident:
				if inSelf && ifaces[e.Name] {
					return e.Name
				}
			case *ast.SelectorExpr:
				if x, ok := e.X.(*ast.Ident); ok && local != "" && x.Name == local && ifaces[e.Sel.Name] {
					return e.Sel.Name
				}
			}
			return ""
		}
		probe := func(e ast.Expr) {
			if name := names(e); name != "" {
				key := rel + ":" + name
				if !slices.Contains(allowedProbes, key) {
					t.Errorf("%s: a type assertion to transport.%s; make it a method of Transport instead",
						fset.Position(e.Pos()), name)
				}
				found = append(found, key)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeAssertExpr:
				if n.Type != nil {
					probe(n.Type)
				}
			case *ast.TypeSwitchStmt:
				for _, c := range n.Body.List {
					for _, e := range c.(*ast.CaseClause).List {
						probe(e)
					}
				}
			}
			return true
		})
	}
	for _, key := range allowedProbes {
		if !slices.Contains(found, key) {
			t.Errorf("the allowed probe %s is gone; drop it from allowedProbes", key)
		}
	}
}
