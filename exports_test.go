package poise_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyBudget is the number of exported functions and methods under
// internal/ that no non-test file names: the ones kept because tests use
// them as tools (cache occupancy and capacities, the §IV model, the
// serve client's ingest and table calls, ...). Product code has product
// callers, so a helper that only its own test calls is deleted rather
// than counted: keeping a new one means raising the budget, and giving
// a kept one a product caller means lowering it.
const testOnlyBudget = 16

// implicitMethods are called by the runtime, fmt, encoding/json,
// net/http, sort, io or errors rather than by name.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"ServeHTTP": true, "Len": true, "Less": true, "Swap": true,
	"Read": true, "Write": true, "Close": true, "Unwrap": true, "Is": true,
}

// testOnlyExempt are the packages that exist to serve tests.
var testOnlyExempt = map[string]bool{
	"poise/internal/testutil":      true,
	"poise/internal/snap/snaptest": true,
}

// goFile is one parsed file of the module (bench/ included) and the
// import path of the package it belongs to.
type goFile struct {
	pkg  string
	test bool
	ast  *ast.File
}

func parseModule(t *testing.T) []goFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, goFile{
			pkg:  path.Join("poise", filepath.ToSlash(filepath.Dir(p))),
			test: strings.HasSuffix(p, "_test.go"),
			ast:  f,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestTestOnlyExportBudget counts the exported functions and methods
// of internal/ packages that only tests name, and logs them. Every
// non-test file of the module is a caller, those under bench/, cmd/,
// examples/ and the root included. A function is named when a non-test
// file of its own package uses its identifier or another non-test file
// selects it through an import of its package; a method is named when
// any non-test file selects a field or method of that name (the scan
// has no types, so it cannot tell receivers apart).
func TestTestOnlyExportBudget(t *testing.T) {
	files := parseModule(t)
	pkgName := map[string]string{} // import path -> package name
	for _, f := range files {
		if !f.test {
			pkgName[f.pkg] = f.ast.Name.Name
		}
	}

	named := map[string]bool{}     // "importpath.Name" of functions used
	selectors := map[string]bool{} // every name selected with x.Name
	for _, f := range files {
		if f.test {
			continue
		}
		imports := map[string]string{} // local name -> import path
		for _, imp := range f.ast.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			local := pkgName[p]
			if local == "" { // outside the module: the standard library
				local = path.Base(p)
			}
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = p
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl: // its own name is no use of it
				if n.Recv != nil {
					ast.Inspect(n.Recv, visit)
				}
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					named[imports[x.Name]+"."+n.Sel.Name] = true
					return false
				}
				selectors[n.Sel.Name] = true
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				named[f.pkg+"."+n.Name] = true
			}
			return true
		}
		ast.Inspect(f.ast, visit)
	}

	var testOnly []string
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.pkg, "poise/internal/") || testOnlyExempt[f.pkg] {
			continue
		}
		for _, d := range f.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			name := fn.Name.Name
			if fn.Recv == nil {
				if !named[f.pkg+"."+name] {
					testOnly = append(testOnly, strings.TrimPrefix(f.pkg, "poise/internal/")+"."+name)
				}
				continue
			}
			if implicitMethods[name] || selectors[name] {
				continue
			}
			testOnly = append(testOnly, strings.TrimPrefix(f.pkg, "poise/internal/")+".("+recvName(fn.Recv)+")."+name)
		}
	}
	sort.Strings(testOnly)
	for _, name := range testOnly {
		t.Logf("named only by tests: %s", name)
	}
	if n := len(testOnly); n != testOnlyBudget {
		t.Fatalf("%d exported internal/ functions and methods are named only by tests, budget %d: "+
			"delete a helper no product code calls (or raise testOnlyBudget in review), "+
			"or lower the budget when one gains a product caller", n, testOnlyBudget)
	}
}

// recvName is the receiver's type name, without pointer or type
// parameters.
func recvName(recv *ast.FieldList) string {
	typ := recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
