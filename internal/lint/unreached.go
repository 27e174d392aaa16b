package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NewUnreached builds the unreached analyzer: every function and method
// declared in a scope package must be reachable from a root package's
// main, or carry //lsm:keep -- <reason>. nil root and scope mean the
// programs under cmd/ and examples/, and the packages under internal/.
// DESIGN.md §1c gives the roots and edges. A run that did not load
// every root and scope package cannot tell dead from unloaded code,
// and reports only reasonless keeps.
func NewUnreached(root, scope func(pkgPath string) bool) *Analyzer {
	if root == nil {
		root = func(p string) bool {
			return strings.HasPrefix(p, "repro/cmd/") || strings.HasPrefix(p, "repro/examples/")
		}
	}
	if scope == nil {
		scope = func(p string) bool { return strings.HasPrefix(p, "repro/internal/") }
	}
	var l *Loader
	passed := map[string]*Package{}
	a := &Analyzer{
		Name: "unreached",
		Doc:  "forbid internal functions no program under cmd/ or examples/ can call",
	}
	a.Run = func(pass *Pass) {
		l = pass.Loader
		passed[pass.Pkg.Path] = pass.Pkg
		for _, f := range pass.Pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if verb, _ := parseDirective(c.Text); verb == VerbKeep && directiveReason(c.Text) == "" {
						pass.Reportf(c.Pos(), nil, "//lsm:keep needs a reason: //lsm:keep -- <who reads it>")
					}
				}
			}
		}
	}
	a.Finish = func(report func(pos token.Position, format string, args ...any)) {
		if l == nil || !l.covers(passed, root, scope) {
			return
		}
		r := newReachability(l)
		programs := map[*types.Package]bool{}
		for p, pkg := range passed {
			if root(p) && pkg.Types.Name() == "main" {
				r.mark(pkg.Types.Scope().Lookup("main"))
				closure(pkg.Types, programs)
			}
		}
		for tp := range programs {
			if pkg := l.pkgs[tp.Path()]; pkg != nil {
				r.queueInits(pkg)
			}
		}
		r.drain()
		for p, pkg := range passed {
			if !scope(p) {
				continue
			}
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || (fn.Recv == nil && fn.Name.Name == "init") {
						continue
					}
					obj := pkg.Info.Defs[fn.Name]
					if r.seen[obj] || pkg.Directives.SuppressedAt(l.Fset, fn.Name.Pos(), VerbKeep) {
						continue
					}
					name := strings.ReplaceAll(obj.(*types.Func).FullName(), p+".", pkg.Types.Name()+".")
					report(l.Fset.Position(fn.Name.Pos()),
						"%s is reached from no program's main: delete it, or annotate //lsm:keep -- <who reads it>", name)
				}
			}
		}
	}
	return a
}

// covers reports whether passed holds every root and scope package of
// the module, one root at least.
func (l *Loader) covers(passed map[string]*Package, root, scope func(string) bool) bool {
	dirs, err := l.packageDirs()
	if err != nil {
		return false
	}
	for _, dir := range dirs {
		if p, err := l.pathFor(dir); err != nil || ((root(p) || scope(p)) && passed[p] == nil) {
			return false
		}
	}
	for p := range passed {
		if root(p) {
			return true
		}
	}
	return false
}

// closure adds p and every package it imports, directly or not, to set.
func closure(p *types.Package, set map[*types.Package]bool) {
	if set[p] {
		return
	}
	set[p] = true
	for _, imp := range p.Imports() {
		closure(imp, set)
	}
}

// reachability is one worklist walk over the loaded module packages.
type reachability struct {
	decls      map[types.Object]declIn // every function and type declaration
	ifaceNames map[string]bool
	seen       map[types.Object]bool
	queue      []declIn
}

// declIn is a syntax node to walk and the package whose Info types it.
type declIn struct {
	pkg  *Package
	node ast.Node
}

func newReachability(l *Loader) *reachability {
	r := &reachability{
		decls:      map[types.Object]declIn{},
		ifaceNames: map[string]bool{"Error": true},
		seen:       map[types.Object]bool{},
	}
	loaded := map[*types.Package]bool{}
	for _, pkg := range l.pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					r.decls[pkg.Info.Defs[n.Name]] = declIn{pkg, n}
				case *ast.TypeSpec:
					r.decls[pkg.Info.Defs[n.Name]] = declIn{pkg, n}
				}
				return true
			})
		}
		for _, tv := range pkg.Info.Types { // interface literals
			r.addIfaceNames(tv.Type)
		}
		closure(pkg.Types, loaded)
	}
	for p := range loaded {
		for _, name := range p.Scope().Names() {
			r.addIfaceNames(p.Scope().Lookup(name).Type())
		}
	}
	return r
}

func (r *reachability) addIfaceNames(t types.Type) {
	if t == nil {
		return
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			r.ifaceNames[iface.Method(i).Name()] = true
		}
	}
}

// queueInits queues pkg's init functions and var declarations: Go runs
// them in every program that imports pkg.
func (r *reachability) queueInits(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.Name == "init" {
					r.queue = append(r.queue, declIn{pkg, d})
				}
			case *ast.GenDecl:
				if d.Tok == token.VAR {
					r.queue = append(r.queue, declIn{pkg, d})
				}
			}
		}
	}
}

// mark reaches one used object: a function's body, or a type's
// declaration and the methods an interface could call.
func (r *reachability) mark(obj types.Object) {
	if fn, ok := obj.(*types.Func); ok {
		obj = fn.Origin()
	}
	if obj == nil || r.seen[obj] {
		return
	}
	r.seen[obj] = true
	d, ok := r.decls[obj]
	if !ok {
		return
	}
	r.queue = append(r.queue, d)
	if tn, ok := obj.(*types.TypeName); ok && !types.IsInterface(tn.Type()) {
		ms := types.NewMethodSet(types.NewPointer(tn.Type()))
		for i := 0; i < ms.Len(); i++ {
			if m := ms.At(i).Obj(); r.ifaceNames[m.Name()] {
				r.mark(m)
			}
		}
	}
}

// drain walks queued declarations until nothing new is reached.
func (r *reachability) drain() {
	for len(r.queue) > 0 {
		d := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				r.mark(d.pkg.Info.Uses[id])
			}
			return true
		})
	}
}
