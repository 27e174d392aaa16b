// Package lint is the repo's compile-time contract checker: a small
// go/analysis-style framework plus the analyzers behind `lsmvet`
// (determinism, hotpath, entryretain, seedlane, unreached — see
// DESIGN.md "Enforced invariants").
//
// The framework is built on the standard library only (go/parser,
// go/types, go/importer): the build environment pins no external
// modules, so golang.org/x/tools is deliberately not a dependency.
// Standard-library imports are type-checked from source via the
// compiler's "source" importer; module-local packages are resolved by
// walking the module tree, so the whole loader works offline.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package plus the side tables
// the analyzers need.
type Package struct {
	Path       string // import path, e.g. repro/internal/wmslog
	Dir        string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	Directives *Directives
}

// Loader parses and type-checks packages of one module. It memoizes by
// import path, so shared dependencies are checked once per run.
type Loader struct {
	ModuleRoot string
	ModulePath string
	Fset       *token.FileSet

	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader builds a loader rooted at the module containing dir (dir or
// any parent must hold go.mod).
func NewLoader(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	// The source importer walks GOROOT package sources through
	// go/build. With cgo enabled it would try to preprocess packages
	// like net through the cgo tool; the pure-Go fallbacks type-check
	// identically for analysis purposes and need no toolchain exec.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		Fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod at or above %s", dir)
		}
		d = parent
	}
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// local reports whether path belongs to this module.
func (l *Loader) local(path string) bool {
	return path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")
}

// dirFor maps a module-local import path to its directory.
func (l *Loader) dirFor(path string) string {
	if path == l.ModulePath {
		return l.ModuleRoot
	}
	rel := strings.TrimPrefix(path, l.ModulePath+"/")
	return filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
}

// pathFor maps a directory inside the module to its import path.
func (l *Loader) pathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.ModuleRoot)
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// LoadDir loads the package in a single directory.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	path, err := l.pathFor(dir)
	if err != nil {
		return nil, err
	}
	return l.Load(path)
}

// Load parses and type-checks one module-local package (memoized).
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}

	var typeErrs []error
	conf := types.Config{
		Importer: loaderImporter{l},
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		// A broken package cannot be analyzed soundly; surface the
		// first error rather than reporting half-typed findings.
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, typeErrs[0])
	}
	p := &Package{
		Path:       path,
		Dir:        dir,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		Directives: collectDirectives(l.Fset, files),
	}
	l.pkgs[path] = p
	return p, nil
}

// parseDir parses the non-test Go files of one directory that build
// for this system (file-name suffixes and //go:build lines, as the go
// command selects them), in a fixed filename order so diagnostics are
// stable run to run.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, n); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// LoadAll loads every package under the module root, skipping testdata,
// hidden directories, and build outputs — the `./...` pattern.
func (l *Loader) LoadAll() ([]*Package, error) {
	dirs, err := l.packageDirs()
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		p, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// packageDirs lists the directories LoadAll loads, sorted.
func (l *Loader) packageDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "bin" || name == "profiles" || name == "vendor") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}

// loaderImporter routes module-local imports through the Loader and
// everything else (the standard library) through the source importer.
type loaderImporter struct{ l *Loader }

func (i loaderImporter) Import(path string) (*types.Package, error) {
	if i.l.local(path) {
		p, err := i.l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return i.l.std.Import(path)
}
