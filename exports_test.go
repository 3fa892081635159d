package kaml

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"slices"
	"strings"
	"testing"
)

// Exported means referenced from outside the package: every exported name
// declared in non-test Go under internal/ or scenarios/ is referenced by
// non-test code of the module or of bench/, or by another package's tests.
// Its own package's tests do not count: a name only they use is a test
// helper that ships. The scan type-checks every package (go/types), so a
// reference is to the object declared, not to a name that happens to match.

const modulePath = "github.com/kaml-ssd/kaml"

// exportScopes are the trees whose exported names need an outside caller.
var exportScopes = []string{"internal", "scenarios"}

// implementsByName are the methods the standard library calls by name or
// through an unnamed interface (fmt's verbs, errors.Is/As/Unwrap).
var implementsByName = []string{"Error", "String", "Unwrap", "Is", "As", "Format"}

// unit is one type-checked package: a package's non-test files, the same
// files with its in-package tests, or its external test package.
type unit struct {
	dir, path string
	files     []srcFile
	test      bool
	pkg       *types.Package
	info      *types.Info
}

// exportScan type-checks the tree, with the fixture's files (source by path)
// added to it, and returns the exported names that need an outside caller
// and have none, as "file:line: pkg.Name".
func exportScan(t *testing.T, fixture map[string]string) []string {
	t.Helper()
	files := slices.Clone(repoFiles(t))
	for p, code := range fixture {
		f, err := parser.ParseFile(tree.fset, p, code, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("fixture %s: %v", p, err)
		}
		files = append(files, srcFile{path: p, fset: tree.fset, file: f})
	}

	// Group the files that build into packages, in-package tests and
	// external test packages by import path.
	lib, withTests, external := map[string]*unit{}, map[string]*unit{}, map[string]*unit{}
	var paths []string
	for _, f := range files {
		dir, base := path.Split(f.path)
		dir = strings.TrimSuffix(dir, "/")
		if _, fix := fixture[f.path]; !fix {
			if ok, err := build.Default.MatchFile(dir, base); err != nil || !ok {
				continue
			}
		}
		imp := modulePath
		if dir != "" {
			imp += "/" + dir
		}
		add := func(m map[string]*unit, test bool) {
			u := m[imp]
			if u == nil {
				u = &unit{dir: dir, path: imp, test: test}
				m[imp] = u
			}
			u.files = append(u.files, f)
		}
		switch {
		case strings.HasSuffix(f.file.Name.Name, "_test"):
			add(external, true)
		case strings.HasSuffix(base, "_test.go"):
			add(withTests, true)
		default:
			add(lib, false)
			add(withTests, true)
			if !slices.Contains(paths, imp) {
				paths = append(paths, imp)
			}
		}
	}

	std := stdImporter(t, files)
	var errs []string
	check := func(u *unit, imp types.Importer) {
		u.info = &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp, Error: func(err error) { errs = append(errs, err.Error()) }}
		asts := make([]*ast.File, len(u.files))
		for i, f := range u.files {
			asts[i] = f.file
		}
		u.pkg, _ = conf.Check(u.path, tree.fset, asts, u.info)
	}
	// importer resolves the module's paths to lib's packages, but, as go
	// test builds an external test, own in place of its path and every
	// package that imports own's path checked again against it.
	var importer func(own *unit) types.Importer
	importer = func(own *unit) types.Importer {
		again := map[string]*types.Package{}
		var imp importerFunc
		imp = func(p string) (*types.Package, error) {
			u := lib[p]
			switch {
			case own != nil && p == own.path:
				return own.pkg, nil
			case u == nil:
				return std.Import(p)
			case u.pkg == nil:
				check(u, importer(nil))
			}
			if own == nil || !dependsOn(u.pkg, own.path) {
				return u.pkg, nil
			}
			if again[p] == nil {
				re := &unit{path: u.path, files: u.files}
				check(re, imp)
				again[p] = re.pkg
			}
			return again[p], nil
		}
		return imp
	}
	for _, p := range paths {
		if lib[p].pkg == nil {
			check(lib[p], importer(nil))
		}
	}
	for p, u := range withTests {
		if len(u.files) > len(lib[p].files) {
			check(u, importer(nil))
		}
	}
	for p, u := range external {
		own := withTests[p]
		if own == nil || own.pkg == nil {
			own = lib[p]
		}
		check(u, importer(own))
	}
	if len(errs) > 0 {
		t.Fatalf("type-checking the tree: %d errors, first %s", len(errs), strings.Join(errs[:min(len(errs), 5)], "\n\t"))
	}

	// Every reference but a package's own tests' counts.
	used := map[token.Pos]bool{}
	for _, m := range []map[string]*unit{lib, withTests, external} {
		for _, u := range m {
			if u.info == nil {
				continue
			}
			for id, obj := range u.info.Uses {
				if obj.Pkg() == nil {
					continue
				}
				if !u.test || !strings.HasSuffix(tree.fset.File(id.Pos()).Name(), "_test.go") ||
					strings.TrimSuffix(obj.Pkg().Path(), "_test") != u.path {
					used[obj.Pos()] = true
				}
			}
		}
	}

	ifaces := namedInterfaces(lib)
	var out []string
	flag := func(obj types.Object, name string) {
		if !used[obj.Pos()] {
			out = append(out, fmt.Sprintf("%s: %s.%s", tree.fset.Position(obj.Pos()), obj.Pkg().Name(), name))
		}
	}
	for _, p := range paths {
		if !under(lib[p].dir, exportScopes) {
			continue
		}
		scope := lib[p].pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				flag(obj, name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := range named.NumMethods() {
				m := named.Method(i)
				if m.Exported() && !implements(named, m.Name(), ifaces) {
					flag(m, name+"."+m.Name())
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// stdImporter imports the standard library packages the files import from
// the compiler's export data, which one go list run locates.
func stdImporter(t *testing.T, files []srcFile) types.Importer {
	t.Helper()
	var paths []string
	for _, f := range files {
		for _, is := range f.file.Imports {
			p := strings.Trim(is.Path.Value, `"`)
			if !strings.HasPrefix(p, modulePath) && !slices.Contains(paths, p) {
				paths = append(paths, p)
			}
		}
	}
	out, err := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}, paths...)...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		p, file, _ := strings.Cut(line, " ")
		export[p] = file
	}
	return importer.ForCompiler(tree.fset, "gc", func(p string) (io.ReadCloser, error) { return os.Open(export[p]) })
}

// dependsOn reports whether p imports path, directly or not.
func dependsOn(p *types.Package, path string) bool {
	return slices.ContainsFunc(p.Imports(), func(q *types.Package) bool { return q.Path() == path || dependsOn(q, path) })
}

// namedInterfaces returns every named interface declared at package level
// in the module's packages and in the packages they import, transitively.
func namedInterfaces(lib map[string]*unit) []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, u := range lib {
		visit(u.pkg)
	}
	return out
}

// implements reports whether method name of t implements a method of some
// interface: one the standard library calls by name, or one of ifaces that
// t or *t implements.
func implements(t *types.Named, name string, ifaces []*types.Interface) bool {
	if slices.Contains(implementsByName, name) {
		return true
	}
	if t.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		if m, _, _ := types.LookupFieldOrMethod(it, false, nil, name); m == nil {
			continue
		}
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

func TestExportedNamesHaveCallers(t *testing.T) {
	if v := exportScan(t, nil); len(v) > 0 {
		t.Errorf("%d exported names have no caller outside their package's tests: delete them, or unexport those the tests need\n\t%s",
			len(v), strings.Join(v, "\n\t"))
	}
}

// The scan names an unreferenced exported function and a method that
// implements no interface at their lines, and leaves alone the methods that
// implement fmt.Stringer and io.Writer.
func TestExportScanFlagsItsFixture(t *testing.T) {
	const fixture = "internal/stats/fixture.go"
	got := slices.DeleteFunc(exportScan(t, map[string]string{fixture: `package stats

// Fixture is referenced by Unreferenced's result.
type Fixture int

func (Fixture) String() string { return "" }

func (Fixture) Write(p []byte) (int, error) { return len(p), nil }

func (Fixture) Label() string { return "" }

func Unreferenced() Fixture { return 0 }
`}), func(v string) bool { return !strings.HasPrefix(v, fixture+":") })
	want := []string{fixture + ":10:16: stats.Fixture.Label", fixture + ":12:6: stats.Unreferenced"}
	if !slices.Equal(got, want) {
		t.Errorf("flagged %q, want %q", got, want)
	}
}
