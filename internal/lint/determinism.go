package lint

import (
	"go/ast"
	"go/types"
)

// DeterministicPackages is the scope of the determinism analyzer: the
// packages whose output is contractually a pure function of (seed,
// config) — the byte-identical-logs-at-any-shard-count guarantee rests
// on them never reading ambient state.
var DeterministicPackages = map[string]bool{
	"repro/internal/gismo":    true,
	"repro/internal/simulate": true,
	"repro/internal/workload": true,
	"repro/internal/wmslog":   true,
	"repro/internal/dist":     true,
	"repro/internal/sessions": true,
	"repro/internal/rate":     true,
	"repro/internal/ring":     true,
	// The fused generate→serve corridor spans these two as of the
	// ring-seam front half: heapx orders every shard's pending sessions,
	// core drives the end-to-end streamed run.
	"repro/internal/heapx": true,
	"repro/internal/core":  true,
	// The calibration loop (fit → twin → validate) is reproducible by
	// contract: equal (characterization, seed) inputs yield equal models,
	// twins, and reports.
	"repro/internal/calibrate": true,
	// The measurement half, which lsmcal's pinned spec and stdout rest
	// on: trace construction and the per-client index, the statistics
	// substrate, and the three layer analyses.
	"repro/internal/trace":   true,
	"repro/internal/stats":   true,
	"repro/internal/analyze": true,
	// Client placement — the AS draw and the address every log line
	// carries — is part of the generator's byte-identity contract.
	"repro/internal/topology": true,
}

// wallclockFuncs are the package time functions that read (or schedule
// against) the wall clock.
var wallclockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// randConstructors are the math/rand{,/v2} package functions that build
// seeded generators rather than drawing from the global source.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// NewDeterminism builds the determinism analyzer. scope selects the
// packages to check; nil means DeterministicPackages. It flags
//
//   - wall-clock reads (time.Now and friends) — suppress with
//     //lsm:wallclock (or //lsm:nondet),
//   - draws from the global math/rand or math/rand/v2 source (any
//     package-level function except the seeded constructors) — every
//     draw must come from a splitmix-lane-seeded generator,
//   - `range` over a map — iteration order is randomized per run, so a
//     map walk feeding any ordered output breaks byte-identity;
//     suppress order-insensitive walks with //lsm:nondet.
func NewDeterminism(scope func(pkgPath string) bool) *Analyzer {
	if scope == nil {
		scope = func(p string) bool { return DeterministicPackages[p] }
	}
	a := &Analyzer{
		Name: "determinism",
		Doc:  "forbid wall-clock, global-rand, and map-order reads in deterministic packages",
	}
	a.Run = func(pass *Pass) {
		if !scope(pass.Pkg.Path) {
			return
		}
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					checkDeterminismSelector(pass, n)
				case *ast.RangeStmt:
					if t := pass.Pkg.Info.TypeOf(n.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							pass.Reportf(n.Pos(), []string{VerbNondet},
								"range over map in deterministic package %s: iteration order is randomized; sort the keys or annotate //lsm:nondet if order cannot reach any output", pass.Pkg.Types.Name())
						}
					}
				}
				return true
			})
		}
	}
	return a
}

func checkDeterminismSelector(pass *Pass, sel *ast.SelectorExpr) {
	x, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pn, ok := pass.Pkg.Info.Uses[x].(*types.PkgName)
	if !ok {
		return
	}
	switch pn.Imported().Path() {
	case "time":
		if wallclockFuncs[sel.Sel.Name] {
			pass.Reportf(sel.Pos(), []string{VerbWallclock, VerbNondet},
				"wall-clock read time.%s in deterministic package %s: outputs must be a pure function of (seed, config); annotate //lsm:wallclock if audited", sel.Sel.Name, pass.Pkg.Types.Name())
		}
	case "math/rand", "math/rand/v2":
		obj, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || randConstructors[obj.Name()] {
			return
		}
		pass.Reportf(sel.Pos(), []string{VerbNondet},
			"global %s.%s draw in deterministic package %s: draw from a splitmix-lane-seeded generator instead", pn.Imported().Name(), sel.Sel.Name, pass.Pkg.Types.Name())
	}
}
