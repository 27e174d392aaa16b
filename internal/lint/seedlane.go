package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// NewSeedlane builds the seedlane analyzer. Every independent random
// stream in the system is derived as dist.Mix64(seed, lane); the
// streams are only independent while the lane numbers are unique
// (gismo owns 0–4, the simulator's per-transfer draws own lane 5 — the
// contract that keeps the served log independent of the generator's
// shard count). The analyzer collects, across
// the whole repo,
//
//   - integer constants following the lane naming convention
//     (laneFoo / fooLane), and
//   - constant second arguments of dist.Mix64 calls,
//
// and fails when two distinct declarations or call sites share a
// value. A deliberately shared lane is granted with //lsm:lanedup.
func NewSeedlane() *Analyzer {
	type candidate struct {
		value int64
		name  string // const name, or the literal text for bare literals
		obj   types.Object
		pos   token.Pos
		pkg   *Package
		fset  *token.FileSet
	}
	var cands []candidate
	seenObj := map[types.Object]bool{}

	addConst := func(pass *Pass, obj types.Object, name string, pos token.Pos) {
		c, ok := obj.(*types.Const)
		if !ok || seenObj[obj] {
			return
		}
		v, exact := constant.Int64Val(constant.ToInt(c.Val()))
		if !exact {
			return
		}
		seenObj[obj] = true
		cands = append(cands, candidate{value: v, name: name, obj: obj, pos: pos, pkg: pass.Pkg, fset: pass.Fset()})
	}

	a := &Analyzer{
		Name: "seedlane",
		Doc:  "forbid duplicate splitmix seed-lane constants repo-wide",
	}
	a.Run = func(pass *Pass) {
		info := pass.Pkg.Info
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ValueSpec:
					for _, name := range n.Names {
						if !isLaneName(name.Name) {
							continue
						}
						addConst(pass, info.Defs[name], name.Name, name.Pos())
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "Mix64" || len(n.Args) != 2 {
						return true
					}
					x, ok := sel.X.(*ast.Ident)
					if !ok {
						return true
					}
					pn, ok := info.Uses[x].(*types.PkgName)
					if !ok || pn.Imported().Path() != "repro/internal/dist" {
						return true
					}
					arg := ast.Unparen(n.Args[1])
					// Conversions like uint64(laneFoo) carry the
					// constant through; unwrap one conversion layer.
					if conv, ok := arg.(*ast.CallExpr); ok && len(conv.Args) == 1 {
						if tv, ok := info.Types[conv.Fun]; ok && tv.IsType() {
							arg = ast.Unparen(conv.Args[0])
						}
					}
					if id, ok := arg.(*ast.Ident); ok {
						addConst(pass, info.Uses[id], id.Name, id.Pos())
						return true
					}
					if sel2, ok := arg.(*ast.SelectorExpr); ok {
						addConst(pass, info.Uses[sel2.Sel], sel2.Sel.Name, sel2.Pos())
						return true
					}
					// Bare literal lane: every occurrence is its own
					// declaration site, so two call sites using the
					// same literal collide (name the lane instead).
					if tv, ok := info.Types[arg]; ok && tv.Value != nil {
						if v, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
							cands = append(cands, candidate{
								value: v,
								name:  fmt.Sprintf("literal %d", v),
								pos:   arg.Pos(),
								pkg:   pass.Pkg,
								fset:  pass.Fset(),
							})
						}
					}
				}
				return true
			})
		}
	}
	a.Finish = func(report func(pos token.Position, format string, args ...any)) {
		byValue := map[int64][]candidate{}
		for _, c := range cands {
			byValue[c.value] = append(byValue[c.value], c)
		}
		values := make([]int64, 0, len(byValue))
		for v := range byValue {
			values = append(values, v)
		}
		sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
		for _, v := range values {
			group := byValue[v]
			if len(group) < 2 {
				continue
			}
			var names []string
			for _, c := range group {
				names = append(names, fmt.Sprintf("%s (%s)", c.name, c.fset.Position(c.pos)))
			}
			for _, c := range group {
				if c.pkg.Directives.SuppressedAt(c.fset, c.pos, VerbLanedup, VerbNondet) {
					continue
				}
				report(c.fset.Position(c.pos),
					"seed lane %d is claimed by %d sites: %s — lanes key independent random streams and must be unique (annotate //lsm:lanedup if sharing is deliberate)",
					v, len(group), strings.Join(names, ", "))
			}
		}
	}
	return a
}

// isLaneName matches the repo's lane naming convention: a camel-case
// segment exactly "lane"/"Lane" at the start or end of the identifier
// (laneRate, serveLane, LaneFoo). "Lanes" (counts, bounds) does not
// match.
func isLaneName(name string) bool {
	if rest, ok := cutAnyPrefix(name, "lane", "Lane"); ok {
		return rest == "" || (rest[0] >= 'A' && rest[0] <= 'Z') || (rest[0] >= '0' && rest[0] <= '9') || rest[0] == '_'
	}
	if strings.HasSuffix(name, "Lane") {
		return true
	}
	return false
}

func cutAnyPrefix(s string, prefixes ...string) (rest string, ok bool) {
	for _, p := range prefixes {
		if r, found := strings.CutPrefix(s, p); found {
			return r, true
		}
	}
	return "", false
}
