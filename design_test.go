package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// declaredNames parses the Go files of the package in dir, tests
// included, and returns every name they declare at top level, every
// method and struct field both as "Type.Name" and bare (DESIGN.md
// writes trace.ByClient for the method Trace.ByClient).
func declaredNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				switch r := recv.(type) {
				case *ast.IndexExpr:
					recv = r.X
				case *ast.IndexListExpr:
					recv = r.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					names[id.Name+"."+d.Name.Name] = true
				}
				names[d.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								for _, id := range field.Names {
									names[s.Name.Name+"."+id.Name] = true
									names[id.Name] = true
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							names[id.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}

// designSymbol is a pkg.Symbol reference inside a code span: the
// package, then an exported name that may hold a * wildcard, then at
// most one more selector (a method or a field). It must not continue a
// path or a longer dotted name; a lower-case name after the dot is a
// file or a benchmark metric (wmslog.write_ns_per_entry), not a symbol.
var designSymbol = regexp.MustCompile(`(?:^|[^\w/.\-])([a-z][a-z0-9]*)\.([A-Z][\w*]*)(?:\.([A-Za-z_]\w*))?`)

// TestDesignNamesResolve holds DESIGN.md to the code: every backticked
// pkg.Symbol naming an internal package is a name that package
// declares (a wildcard such as analyze.Analyze*Layer matches at least
// one), and §1's package map lists every internal/ and cmd/ directory.
func TestDesignNamesResolve(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	declared := make(map[string]map[string]bool)
	for _, dir := range pkgs {
		declared[filepath.Base(dir)] = declaredNames(t, dir)
	}

	inFence := false
	for n, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		spans := strings.Split(line, "`")
		for i := 1; i < len(spans); i += 2 {
			for _, m := range designSymbol.FindAllStringSubmatch(spans[i], -1) {
				names, ok := declared[m[1]]
				if !ok {
					continue
				}
				if !resolves(names, m[2], m[3]) {
					t.Errorf("DESIGN.md:%d: `%s` names nothing package %s declares", n+1, strings.TrimLeft(m[0], " (["), m[1])
				}
			}
		}
	}

	// §1's package map, with cmd/lsm{gen,char} brace lists expanded.
	_, section, _ := strings.Cut(string(doc), "## 1. Package map")
	section, _, _ = strings.Cut(section, "\n## ")
	listed := make(map[string]bool)
	for _, word := range strings.Fields(section) {
		word = strings.TrimRight(word, ",.;:")
		prefix, rest, braced := strings.Cut(word, "{")
		if !braced {
			listed[word] = true
			continue
		}
		alts, suffix, _ := strings.Cut(rest, "}")
		for _, alt := range strings.Split(alts, ",") {
			listed[prefix+alt+suffix] = true
		}
	}
	cmds, err := filepath.Glob("cmd/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range slices.Concat(pkgs, cmds) {
		if !listed[path.Clean(filepath.ToSlash(dir))] {
			t.Errorf("DESIGN.md §1's package map does not list %s", dir)
		}
	}
}

// resolves reports whether name (with sel, its selector, if any) is
// declared: a wildcard name must match at least one declared name.
func resolves(names map[string]bool, name, sel string) bool {
	if !strings.Contains(name, "*") {
		return names[name] && (sel == "" || names[name+"."+sel])
	}
	pattern := regexp.MustCompile("^" + strings.ReplaceAll(regexp.QuoteMeta(name), `\*`, `\w*`) + "$")
	for declared := range names {
		if pattern.MatchString(declared) {
			return true
		}
	}
	return false
}
