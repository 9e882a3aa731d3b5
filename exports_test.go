package poise_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
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
const testOnlyBudget = 15

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

// uses is what a set of files names outside the declarations
// themselves.
type uses struct {
	named      map[string]bool // "importpath.Name" of identifiers used, qualified or not
	selected   map[string]bool // every name selected with x.Name, x not a package
	selectedIn map[string]bool // "importpath.Name": the same, by the selecting file's package
}

func newUses() *uses {
	return &uses{named: map[string]bool{}, selected: map[string]bool{}, selectedIn: map[string]bool{}}
}

// add records what f names. pkgName maps the module's import paths to
// package names. A selector inside a method of the same name is no
// use: a composite asking its parts for the same method, or a wrapper
// forwarding to its field, gives the method no caller it lacked.
func (u *uses) add(f goFile, pkgName map[string]string) {
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
	method := "" // the name of the method being walked
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl: // its own name is no use of it
			if n.Recv != nil {
				method = n.Name.Name
				ast.Inspect(n.Recv, visit)
			}
			ast.Inspect(n.Type, visit)
			if n.Body != nil {
				ast.Inspect(n.Body, visit)
			}
			method = ""
			return false
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
				u.named[imports[x.Name]+"."+n.Sel.Name] = true
				return false
			}
			if n.Sel.Name != method {
				u.selected[n.Sel.Name] = true
				u.selectedIn[f.pkg+"."+n.Sel.Name] = true
			}
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			u.named[f.pkg+"."+n.Name] = true
		}
		return true
	}
	ast.Inspect(f.ast, visit)
}

// packageNames maps the module's import paths to package names.
func packageNames(files []goFile) map[string]string {
	names := map[string]string{}
	for _, f := range files {
		if !f.test {
			names[f.pkg] = f.ast.Name.Name
		}
	}
	return names
}

// internalFuncs calls fn for every function and method declared in a
// non-test file under internal/, with the name tests report it by.
func internalFuncs(files []goFile, fn func(f goFile, d *ast.FuncDecl, shown string)) {
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.pkg, "poise/internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			d, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			shown := strings.TrimPrefix(f.pkg, "poise/internal/") + "."
			if d.Recv != nil {
				shown += "(" + recvName(d.Recv) + ")."
			}
			fn(f, d, shown+d.Name.Name)
		}
	}
}

// TestTestOnlyExportBudget counts the exported functions and methods
// of internal/ packages that only tests name, and logs them. Every
// non-test file of the module is a caller, those under bench/, cmd/,
// examples/ and the root included. A function is named when a non-test
// file of its own package uses its identifier or another non-test file
// selects it through an import of its package; a method is named when
// any non-test file selects a field or method of that name outside a
// method of that name (the scan has no types, so it cannot tell
// receivers apart). That is its blind spot: a method no file calls
// still counts as named while any other field or method shares its
// name, as KernelTrace.Kernel() hid an uncalled sim.(*GPU).Kernel.
func TestTestOnlyExportBudget(t *testing.T) {
	files := parseModule(t)
	pkgName := packageNames(files)
	u := newUses()
	for _, f := range files {
		if !f.test {
			u.add(f, pkgName)
		}
	}

	var testOnly []string
	internalFuncs(files, func(f goFile, fn *ast.FuncDecl, shown string) {
		name := fn.Name.Name
		switch {
		case !fn.Name.IsExported() || testOnlyExempt[f.pkg]:
		case fn.Recv == nil && !u.named[f.pkg+"."+name],
			fn.Recv != nil && !implicitMethods[name] && !u.selected[name]:
			testOnly = append(testOnly, shown)
		}
	})
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

// TestUnexportedNamed fails on an unexported function or method under
// internal/ that no file names, tests included: the compiler reports an
// unused variable or import but not an unused function, so dead code
// would otherwise stay until someone reads it. A function counts as
// named when any file of its package uses its identifier, a method
// when any file of its package selects its name outside a method of
// that name.
func TestUnexportedNamed(t *testing.T) {
	files := parseModule(t)
	pkgName := packageNames(files)
	u := newUses()
	for _, f := range files {
		u.add(f, pkgName)
	}
	var dead []string
	internalFuncs(files, func(f goFile, fn *ast.FuncDecl, shown string) {
		name := fn.Name.Name
		key := f.pkg + "." + name
		switch {
		case fn.Name.IsExported() || name == "init" || name == "_":
		case fn.Recv == nil && !u.named[key], fn.Recv != nil && !u.selectedIn[key]:
			dead = append(dead, shown)
		}
	})
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("%s is declared but nothing names it: delete it", name)
	}
}

// TestNoHookEveryImplementationIgnores fails on a method of an
// internal/ interface that every non-test implementation leaves empty:
// a hook nobody uses still costs a call on every path that invokes it
// and a method on every new implementation. An implementation is any
// non-test type of the module (bench/ included) that declares every
// method the interface declares itself; the scan has no types, so
// promoted methods and embedded interfaces are not followed.
func TestNoHookEveryImplementationIgnores(t *testing.T) {
	files := parseModule(t)
	methods := map[string]map[string]*ast.FuncDecl{} // "importpath.Type" -> method name -> declaration
	type iface struct {
		name    string
		methods []string
	}
	var ifaces []iface
	for _, f := range files {
		if f.test {
			continue
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil || d.Body == nil {
					continue
				}
				typ := f.pkg + "." + recvName(d.Recv)
				if methods[typ] == nil {
					methods[typ] = map[string]*ast.FuncDecl{}
				}
				methods[typ][d.Name.Name] = d
			case *ast.GenDecl:
				if !strings.HasPrefix(f.pkg, "poise/internal/") {
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					it, ok := ts.Type.(*ast.InterfaceType)
					if !ok {
						continue
					}
					i := iface{name: strings.TrimPrefix(f.pkg, "poise/internal/") + "." + ts.Name.Name}
					for _, m := range it.Methods.List {
						if _, ok := m.Type.(*ast.FuncType); ok {
							for _, id := range m.Names {
								i.methods = append(i.methods, id.Name)
							}
						}
					}
					if len(i.methods) > 0 {
						ifaces = append(ifaces, i)
					}
				}
			}
		}
	}

	var ignored []string
	for _, i := range ifaces {
		var impls []map[string]*ast.FuncDecl
		for _, ms := range methods {
			if !slices.ContainsFunc(i.methods, func(m string) bool { return ms[m] == nil }) {
				impls = append(impls, ms)
			}
		}
		if len(impls) == 0 {
			continue
		}
		for _, m := range i.methods {
			if !slices.ContainsFunc(impls, func(ms map[string]*ast.FuncDecl) bool { return len(ms[m].Body.List) > 0 }) {
				ignored = append(ignored, i.name+"."+m)
			}
		}
	}
	sort.Strings(ignored)
	for _, name := range ignored {
		t.Errorf("every implementation of %s is empty: drop the method and its call sites", name)
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
