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
	"sync"
	"testing"
)

// testOnlyAPI lists the exported functions of internal/ that only tests
// call, one `pkg.Recv.Name  reason` line each, sorted.
const testOnlyAPI = "testdata/test-only-api.txt"

// testOnlyKnobs lists the fields of internal/'s config structs that only
// tests set, one `pkg.Type.Field  reason` line each, sorted.
const testOnlyKnobs = "testdata/test-only-knobs.txt"

// TestEveryExportedFuncHasACaller fails on an exported function or method
// in the non-test code of internal/ that no program references: not a
// package of this module, not cmd/, not examples/, not the benchmark module.
// A method that implements a method of some interface counts as called. The
// functions that exist for tests (observers, oracles) are listed in
// testdata/test-only-api.txt; a listed name that gains a caller or no
// longer exists fails the test too, so the list cannot go stale.
func TestEveryExportedFuncHasACaller(t *testing.T) {
	u := loadUniverse(t)
	checkAllowList(t, testOnlyAPI, u.unused(), u.exists,
		"is exported but no program calls it: delete it", "now has a caller outside tests")
}

// TestEveryConfigFieldIsSet fails on an exported field of an exported
// *Config or *Params struct in internal/ that no program writes, other than
// its own type's defaults(): a value nothing sets is a constant, not a knob.
// A write is a keyed or unkeyed composite literal, an assignment or an
// increment, in a function body or a package-level var initializer, anywhere
// in the non-test code of both modules. The fields only tests set are listed in
// testdata/test-only-knobs.txt, which cannot go stale either.
func TestEveryConfigFieldIsSet(t *testing.T) {
	u := loadUniverse(t)
	checkAllowList(t, testOnlyKnobs, u.unsetKnobs(), u.knobExists,
		"is a config field no program sets: make it a constant", "is now set outside tests")
}

var (
	universeOnce sync.Once
	universeAll  *universe
	universeErr  error
)

// loadUniverse type-checks both modules once per test binary.
func loadUniverse(t *testing.T) *universe {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks both modules")
	}
	universeOnce.Do(func() {
		universeAll = newUniverse(token.NewFileSet())
		for _, dir := range []string{".", "benchmark"} {
			if universeErr = universeAll.load(dir); universeErr != nil {
				return
			}
		}
	})
	if universeErr != nil {
		t.Fatal(universeErr)
	}
	return universeAll
}

// checkAllowList fails on a name in found that the allow-list at path does
// not list, and on a listed name that does not exist or is not in found.
func checkAllowList(t *testing.T, path string, found []string, exists map[string]bool, missing, gained string) {
	t.Helper()
	allowed, err := readAllowList(path)
	if err != nil {
		t.Fatal(err)
	}
	isFound := make(map[string]bool, len(found))
	for _, name := range found {
		isFound[name] = true
		if _, ok := allowed[name]; !ok {
			t.Errorf("%s %s, or if a test needs it add this line to %s:\n\t%s  <why a test needs it>",
				name, missing, path, name)
		}
	}
	for name := range allowed {
		switch {
		case !exists[name]:
			t.Errorf("%s: %s no longer exists; delete its line", path, name)
		case !isFound[name]:
			t.Errorf("%s: %s %s; delete its line", path, name, gained)
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
	files  [][]*ast.File // each info's files
	decls  map[*types.Func]*ast.FuncDecl
	names  map[*types.Func]string // exported funcs of internal/ → pkg.Recv.Name
	exists map[string]bool        // the names' values

	knobs      map[*types.Var]knob // exported fields of internal/'s config structs
	knobExists map[string]bool     // the knobs' names
}

// knob is a config field: its pkg.Type.Field name and the struct declaring it.
type knob struct {
	name  string
	owner types.Type
}

func newUniverse(fset *token.FileSet) *universe {
	u := &universe{
		fset:   fset,
		pkgs:   map[string]*types.Package{},
		export: map[string]string{},
		decls:  map[*types.Func]*ast.FuncDecl{},
		names:  map[*types.Func]string{},
		exists: map[string]bool{},

		knobs:      map[*types.Var]knob{},
		knobExists: map[string]bool{},
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
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: u}
	pkg, err := conf.Check(p.ImportPath, u.fset, files, info)
	if err != nil {
		return fmt.Errorf("type-check %s: %v", p.ImportPath, err)
	}
	u.pkgs[p.ImportPath] = pkg
	u.infos = append(u.infos, info)
	u.files = append(u.files, files)

	internal := strings.Contains(p.ImportPath+"/", "/internal/")
	if internal {
		u.addKnobs(pkg)
	}
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

// addKnobs records the exported fields of pkg's exported struct types whose
// names end in Config or Params.
func (u *universe) addKnobs(pkg *types.Package) {
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || tn.IsAlias() ||
			!(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Params")) {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				k := knob{pkg.Name() + "." + name + "." + f.Name(), tn.Type()}
				u.knobs[f] = k
				u.knobExists[k.name] = true
			}
		}
	}
}

// unsetKnobs returns the sorted names of the config fields that no
// composite literal, assignment or increment writes, apart from writes in
// the defaults() method of the field's own struct.
func (u *universe) unsetKnobs() []string {
	set := map[*types.Var]bool{}
	for i, info := range u.infos {
		for _, f := range u.files[i] {
			for _, d := range f.Decls {
				var own types.Type // the struct whose defaults() this is
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "defaults" && fd.Recv != nil {
					own = info.Defs[fd.Name].(*types.Func).Type().(*types.Signature).Recv().Type()
					if p, ok := own.(*types.Pointer); ok {
						own = p.Elem()
					}
				}
				write := func(obj types.Object) {
					if v, ok := obj.(*types.Var); ok && u.knobs[v].owner != own {
						set[v] = true
					}
				}
				field := func(e ast.Expr) {
					if se, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
						if sel := info.Selections[se]; sel != nil {
							write(sel.Obj())
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						st, ok := info.Types[n].Type.Underlying().(*types.Struct)
						if !ok {
							break
						}
						for j, e := range n.Elts {
							if kv, ok := e.(*ast.KeyValueExpr); ok {
								write(info.Uses[kv.Key.(*ast.Ident)])
							} else {
								write(st.Field(j))
							}
						}
					case *ast.AssignStmt:
						for _, e := range n.Lhs {
							field(e)
						}
					case *ast.IncDecStmt:
						field(n.X)
					}
					return true
				})
			}
		}
	}
	var out []string
	for v, k := range u.knobs {
		if !set[v] {
			out = append(out, k.name)
		}
	}
	sort.Strings(out)
	return out
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
