package softqos

// The export census: which package-level funcs and methods no program
// reaches. It type-checks every package of the module (build tags
// honoured, test files left out) and walks the reference graph from the
// program roots:
//
//   - every main and init func;
//   - every package-level var initialiser;
//   - the root package's exported API (see below);
//   - every name the benchmark/ harness references (read, never gated);
//   - every method that makes its type satisfy an interface the module
//     or a standard-library package it imports declares, and the
//     methods the standard library reaches through unnamed interfaces
//     (errors.Is/As/Unwrap, net.Error's Timeout/Temporary).
//
// A func that only unreachable code calls is unreachable too. Each
// unreachable func outside the root package must be on the pinned list
// in testdata/census.txt with a reason; a new one fails the test, and so
// does a pinned name that is no longer flagged, so the list only
// shrinks. The root package's exports no program calls are logged but
// not gated: they are the library's public surface.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// raceDetector is set by census_race_test.go in -race builds.
var raceDetector bool

// censusPinned is the file listing the tolerated unreachable funcs.
const censusPinned = "testdata/census.txt"

// censusReasons are the reasons a pinned name may give. A seam is a
// func tests use to observe or drive production state that remains; an
// item-N entry waits on the ROADMAP item that decides it.
var censusReasons = map[string]bool{"seam": true, "item-4": true, "item-14": true}

// stdlibDynamicMethods are called by the standard library through
// interfaces it declares inside function bodies, which a package scope
// does not show.
var stdlibDynamicMethods = map[string]bool{"Unwrap": true, "Is": true, "As": true, "Timeout": true, "Temporary": true}

type censusPkg struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// census type-checks one module and computes its unreachable funcs.
type census struct {
	fset    *token.FileSet
	modPath string
	pkgs    map[string]*censusPkg // module packages by import path
	std     types.ImporterFrom
}

// censusResult is what a census run reports.
type censusResult struct {
	// Unreachable holds the unreachable funcs outside the root package,
	// by name ("internal/sim.Simulator.Run"), with their line counts.
	Unreachable map[string]int
	// RootUnreached holds the root package's exports no program reaches.
	RootUnreached []string
}

// runCensus loads the module rooted at root and the reader-only
// harness in root/bench (skipped when absent) and computes the census.
func runCensus(root, bench string) (*censusResult, error) {
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	c := &census{fset: fset, modPath: modPath, pkgs: map[string]*censusPkg{},
		std: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == bench || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, path)
		ip := modPath
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		p, err := c.parseDir(path, ip)
		if p != nil {
			c.pkgs[ip] = p
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	var harness *censusPkg
	if dir := filepath.Join(root, bench); bench != "" && isDir(dir) {
		if harness, err = c.parseDir(dir, modPath+"/"+bench); err != nil {
			return nil, err
		}
	}
	for _, p := range c.pkgs {
		if err := c.check(p); err != nil {
			return nil, err
		}
	}
	if harness != nil {
		if err := c.check(harness); err != nil {
			return nil, err
		}
	}
	return c.reach(harness), nil
}

func isDir(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// parseDir parses the non-test files go/build selects in dir; nil when
// the directory holds no Go package.
func (c *census) parseDir(dir, path string) (*censusPkg, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return nil, nil
		}
		return nil, err
	}
	p := &censusPkg{path: path}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	return p, nil
}

func (c *census) check(p *censusPkg) error {
	if p.pkg != nil {
		return nil
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(p.path, c.fset, p.files, p.info)
	p.pkg = pkg
	return err
}

func (c *census) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, "", 0)
}

// ImportFrom serves module packages from the census's own checks, so
// every package sees the same objects, and the rest from source.
func (c *census) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p := c.pkgs[path]; p != nil {
		err := c.check(p)
		return p.pkg, err
	}
	return c.std.ImportFrom(path, dir, mode)
}

func (c *census) inModule(obj types.Object) bool {
	return obj.Pkg() != nil && c.pkgs[obj.Pkg().Path()] != nil
}

// uses adds to set every module func or method node references.
func (c *census) uses(info *types.Info, node ast.Node, set map[*types.Func]bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok && c.inModule(fn) {
				set[fn.Origin()] = true
			}
		}
		return true
	})
}

// censusName names a func as "<package dir>.<Func>" or
// "<package dir>.<Type>.<Method>", the directory relative to the module
// root; the root package goes by its package name.
func (c *census) censusName(fn *types.Func) string {
	pkg := strings.TrimPrefix(strings.TrimPrefix(fn.Pkg().Path(), c.modPath), "/")
	if pkg == "" {
		pkg = fn.Pkg().Name()
	}
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	return pkg + "." + name
}

func (c *census) reach(harness *censusPkg) *censusResult {
	edges := map[*types.Func]map[*types.Func]bool{}
	lines := map[*types.Func]int{}
	roots := map[*types.Func]bool{}
	rootAPI := map[*types.Func]bool{}
	ifaces := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	var named []*types.Named
	for _, p := range c.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.pkg.Name() == "main") {
						c.uses(p.info, d, roots)
						continue
					}
					fn := p.info.Defs[d.Name].(*types.Func)
					edges[fn] = map[*types.Func]bool{}
					c.uses(p.info, d, edges[fn])
					lines[fn] = c.fset.Position(d.End()).Line - c.fset.Position(d.Pos()).Line + 1
					if p.path == c.modPath && fn.Exported() {
						rootAPI[fn] = true
					}
					if stdlibDynamicMethods[fn.Name()] && d.Recv != nil {
						roots[fn] = true
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						c.uses(p.info, d, roots)
					}
				}
			}
		}
		for _, obj := range p.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() == nil {
					named = append(named, n)
				}
			}
		}
		for _, tv := range p.info.Types {
			if _, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
				addIface(tv.Type)
			}
		}
	}
	if harness != nil {
		for _, f := range harness.files {
			c.uses(harness.info, f, roots)
		}
	}

	// Interfaces declared at package level in the module and in every
	// package it imports, directly or not.
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, p := range c.pkgs {
		visit(p.pkg)
	}
	if harness != nil {
		visit(harness.pkg)
	}
	// *T's method set holds T's, so *T stands for both.
	for _, n := range named {
		if _, ok := n.Underlying().(*types.Interface); ok {
			continue
		}
		ptr := types.NewPointer(n)
		mset := types.NewMethodSet(ptr)
		if mset.Len() == 0 {
			continue
		}
		for it := range ifaces {
			// The method-set probe is a cheap filter before Implements.
			if mset.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil || !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				sel := mset.Lookup(m.Pkg(), m.Name())
				if fn, ok := sel.Obj().(*types.Func); ok && c.inModule(fn) {
					roots[fn.Origin()] = true
				}
			}
		}
	}

	walk := func(start map[*types.Func]bool) map[*types.Func]bool {
		live := map[*types.Func]bool{}
		var stack []*types.Func
		for fn := range start {
			stack = append(stack, fn)
		}
		for len(stack) > 0 {
			fn := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if live[fn] {
				continue
			}
			live[fn] = true
			for next := range edges[fn] {
				stack = append(stack, next)
			}
		}
		return live
	}

	res := &censusResult{Unreachable: map[string]int{}}
	programs := walk(roots)
	for fn := range rootAPI {
		if !programs[fn] {
			res.RootUnreached = append(res.RootUnreached, c.censusName(fn))
		}
		roots[fn] = true
	}
	sort.Strings(res.RootUnreached)
	live := walk(roots)
	for fn, n := range lines {
		if !live[fn] && fn.Pkg().Path() != c.modPath {
			res.Unreachable[c.censusName(fn)] = n
		}
	}
	return res
}

// readPinned reads the pinned list: one "<name> <reason>" per line,
// '#' starts a comment.
func readPinned(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	pinned := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		switch {
		case len(fields) == 0:
			continue
		case len(fields) != 2 || !censusReasons[fields[1]]:
			return nil, fmt.Errorf("%s:%d: want \"<name> <reason>\" with a reason from %v, got %q", path, n, censusReasonList(), sc.Text())
		}
		pinned[fields[0]] = fields[1]
	}
	return pinned, sc.Err()
}

func censusReasonList() []string {
	var rs []string
	for r := range censusReasons {
		rs = append(rs, r)
	}
	sort.Strings(rs)
	return rs
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestCensus(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("type-checks from source; make lint-api runs it")
	}
	res, err := runCensus(".", "benchmark")
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := readPinned(censusPinned)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, name := range sortedKeys(res.Unreachable) {
		total += res.Unreachable[name]
		if _, ok := pinned[name]; !ok {
			t.Errorf("%s: no program reaches it; call it, delete it, or (a test seam only) pin it in %s", name, censusPinned)
		}
	}
	for _, name := range sortedKeys(pinned) {
		if _, ok := res.Unreachable[name]; !ok {
			t.Errorf("%s: pinned in %s but reachable or gone; remove the line", name, censusPinned)
		}
	}
	t.Logf("census: %d unreachable funcs outside the root package (%d lines), %d pinned", len(res.Unreachable), total, len(pinned))
	t.Logf("census: root package exports no program reaches (not gated): %s", strings.Join(res.RootUnreached, ", "))
}

// TestCensusFixture runs the census on a small module under testdata.
func TestCensusFixture(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("type-checks from source; make lint-api runs it")
	}
	res, err := runCensus("testdata/censusmod", "benchmark")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/lib.T.Unused", "internal/lib.Unused", "internal/lib.helper"}
	if got := sortedKeys(res.Unreachable); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("unreachable = %v, want %v", got, want)
	}
	if got := strings.Join(res.RootUnreached, " "); got != "fixture.Unreached" {
		t.Errorf("root unreached = %q, want %q", got, "fixture.Unreached")
	}
}
