package blemesh

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAPI lists the exported functions of internal/ that only tests
// call, one `pkg.Recv.Name  reason` line each, sorted.
const testOnlyAPI = "testdata/test-only-api.txt"

// TestEveryExportedFuncHasACaller fails on an exported function or method
// in the non-test code of internal/ that no program references: not a
// package of this module, not cmd/, not examples/, not the benchmark module.
// A method that implements a method of some interface counts as called. The
// functions that exist for tests (observers, oracles) are listed in
// testdata/test-only-api.txt; a listed name that gains a caller or no
// longer exists fails the test too, so the list cannot go stale.
func TestEveryExportedFuncHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules")
	}
	fset := token.NewFileSet()
	u := newUniverse(fset)
	for _, dir := range []string{".", "benchmark"} {
		if err := u.load(dir); err != nil {
			t.Fatal(err)
		}
	}
	unused := u.unused()

	allowed, err := readAllowList(testOnlyAPI)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range unused {
		if _, ok := allowed[name]; !ok {
			t.Errorf("%s is exported but no program calls it: delete it, or if a test needs it add this line to %s:\n\t%s  <why a test needs it>",
				name, testOnlyAPI, name)
		}
	}
	isUnused := make(map[string]bool, len(unused))
	for _, name := range unused {
		isUnused[name] = true
	}
	for name := range allowed {
		switch {
		case !u.exists[name]:
			t.Errorf("%s: %s no longer exists; delete its line", testOnlyAPI, name)
		case !isUnused[name]:
			t.Errorf("%s: %s now has a caller outside tests; delete its line", testOnlyAPI, name)
		}
	}
}

// readAllowList parses the allow-list: `#` comments and blank lines aside,
// each line is a name, whitespace and a reason, and the names are sorted
// and unique.
func readAllowList(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	prev := ""
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		reason = strings.TrimSpace(reason)
		switch {
		case reason == "":
			return nil, fmt.Errorf("%s:%d: %q gives no reason", path, n, name)
		case name == prev:
			return nil, fmt.Errorf("%s:%d: %s is listed twice", path, n, name)
		case name < prev:
			return nil, fmt.Errorf("%s:%d: %s is out of order: it sorts before %s", path, n, name, prev)
		}
		out[name] = reason
		prev = name
	}
	return out, sc.Err()
}

// goPackage is the part of `go list -json` the scan reads.
type goPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Error      *struct{ Err string }
}

// universe type-checks the non-test source of both modules' packages,
// importing the standard library from its export data.
type universe struct {
	fset   *token.FileSet
	pkgs   map[string]*types.Package // checked from source
	export map[string]string         // standard library path → export data file
	gc     types.Importer
	infos  []*types.Info
	decls  map[*types.Func]*ast.FuncDecl
	names  map[*types.Func]string // exported funcs of internal/ → pkg.Recv.Name
	exists map[string]bool        // the names' values
}

func newUniverse(fset *token.FileSet) *universe {
	u := &universe{
		fset:   fset,
		pkgs:   map[string]*types.Package{},
		export: map[string]string{},
		decls:  map[*types.Func]*ast.FuncDecl{},
		names:  map[*types.Func]string{},
		exists: map[string]bool{},
	}
	u.gc = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := u.export[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
	return u
}

func (u *universe) Import(path string) (*types.Package, error) {
	if p, ok := u.pkgs[path]; ok {
		return p, nil
	}
	return u.gc.Import(path)
}

// load lists the packages of the module in dir with their dependencies
// (dependencies first) and type-checks those not checked yet.
func (u *universe) load(dir string) error {
	cmd := exec.Command("go", "list", "-e", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,Standard,Error", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p goPackage
		if err := dec.Decode(&p); err != nil {
			return fmt.Errorf("go list in %s: %v", dir, err)
		}
		if p.Error != nil {
			return fmt.Errorf("go list in %s: %s: %s", dir, p.ImportPath, p.Error.Err)
		}
		if p.Standard {
			u.export[p.ImportPath] = p.Export
			continue
		}
		if _, done := u.pkgs[p.ImportPath]; done {
			continue
		}
		if err := u.check(&p); err != nil {
			return err
		}
	}
	return nil
}

func (u *universe) check(p *goPackage) error {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(u.fset, filepath.Join(p.Dir, name), nil, 0)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: u}
	pkg, err := conf.Check(p.ImportPath, u.fset, files, info)
	if err != nil {
		return fmt.Errorf("type-check %s: %v", p.ImportPath, err)
	}
	u.pkgs[p.ImportPath] = pkg
	u.infos = append(u.infos, info)

	internal := strings.Contains(p.ImportPath+"/", "/internal/")
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn := info.Defs[fd.Name].(*types.Func)
			u.decls[fn] = fd
			if !internal || !fd.Name.IsExported() {
				continue
			}
			name := pkg.Name() + "." + fd.Name.Name
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				name = pkg.Name() + "." + recvName(recv.Type()) + "." + fd.Name.Name
			}
			u.names[fn] = name
			u.exists[name] = true
		}
	}
	return nil
}

func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// unused returns the sorted names of the exported functions of internal/
// that nothing references outside their own body and that implement no
// interface method.
func (u *universe) unused() []string {
	called := map[*types.Func]bool{}
	for _, info := range u.infos {
		for id, obj := range info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if d := u.decls[fn]; d != nil && d.Pos() <= id.Pos() && id.Pos() < d.End() {
				continue // recursion is not a caller
			}
			called[fn] = true
		}
	}
	ifaces := u.interfaces()
	var out []string
	for fn, name := range u.names {
		if !called[fn] && !implementsSome(fn, ifaces) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// interfaces collects every non-generic interface type declared in a
// checked package, in a package they import, or written in place.
func (u *universe) interfaces() []*types.Interface {
	var out []*types.Interface
	add := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			out = append(out, it)
		}
	}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range u.pkgs {
		visit(p)
	}
	add(types.Universe.Lookup("error").Type())
	for _, info := range u.infos {
		for _, obj := range info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, tv := range info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return out
}

// implementsSome reports whether fn is a method that implements a method of
// one of ifaces.
func implementsSome(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(t)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != fn.Name() {
				continue
			}
			if types.Implements(t, it) || types.Implements(ptr, it) {
				return true
			}
		}
	}
	return false
}
