package lint

import (
	"go/ast"
	"go/token"
	"maps"
	"slices"
	"strings"
)

// Directive verbs. The grammar is
//
//	//lsm:<verb> [-- reason]
//
// written either as a trailing comment on the offending line, as a
// comment line directly above it, or inside a function's doc comment
// (covering the whole function). `hotpath` is an annotation (it opts a
// function INTO checking); the rest are audited suppressions and should
// carry a reason.
const (
	// VerbHotpath marks a function as allocation-critical: the hotpath
	// analyzer checks every call and expression in its body.
	VerbHotpath = "hotpath"
	// VerbWallclock grants an audited wall-clock read (time.Now and
	// friends) inside a deterministic package.
	VerbWallclock = "wallclock"
	// VerbNondet grants any determinism exception: wall-clock reads,
	// global rand draws, or map iteration feeding output.
	VerbNondet = "nondet"
	// VerbAlloc grants an allocation exception inside an //lsm:hotpath
	// function.
	VerbAlloc = "alloc"
	// VerbRetain grants retention of a sink *wmslog.Entry pointer (the
	// annotated code owns the entry, or clones before the pool reuses it).
	VerbRetain = "retain"
	// VerbLanedup grants a deliberately shared splitmix seed lane.
	VerbLanedup = "lanedup"
	// VerbKeep exempts a function no program reaches from the
	// unreached analyzer; its reason must name the function's reader.
	VerbKeep = "keep"
)

var knownVerbs = map[string]bool{
	VerbHotpath:   true,
	VerbWallclock: true,
	VerbNondet:    true,
	VerbAlloc:     true,
	VerbRetain:    true,
	VerbLanedup:   true,
	VerbKeep:      true,
}

// Verbs returns the known directive verbs, sorted: the one list the
// unknown-directive finding and `lsmvet -list` (VerbHelp) print.
func Verbs() []string {
	return slices.Sorted(maps.Keys(knownVerbs))
}

// VerbHelp is `lsmvet -list`'s directive line.
func VerbHelp() string {
	return "directives: //lsm:" + strings.Join(Verbs(), ", //lsm:") +
		" (hotpath is an annotation, the rest are audited exceptions; add `-- reason`)"
}

const directivePrefix = "//lsm:"

// Directives indexes one package's //lsm: comments for suppression and
// annotation lookup.
type Directives struct {
	// byLine maps filename → line → verbs granted on that line. A
	// directive covers its own line and the next one, so both trailing
	// and line-above placements work.
	byLine map[string]map[int][]string
	// funcRanges holds doc-comment directives covering whole bodies.
	funcRanges []funcDirective
	// Unknown collects malformed or unrecognized //lsm: comments; the
	// driver reports them so a typoed suppression fails loudly instead
	// of silently not suppressing.
	Unknown []Unknown
}

type funcDirective struct {
	verb     string
	from, to token.Pos
}

// Unknown is one unparseable //lsm: directive.
type Unknown struct {
	Pos  token.Pos
	Text string
}

// parseDirective splits "//lsm:verb -- reason" into its verb, reporting
// ok=false for text that does not carry a known verb.
func parseDirective(text string) (verb string, ok bool) {
	rest, found := strings.CutPrefix(text, directivePrefix)
	if !found {
		return "", false
	}
	verb = rest
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		verb = rest[:i]
	}
	return verb, knownVerbs[verb]
}

// directiveReason returns the text after a directive's "--", or "".
func directiveReason(text string) string {
	_, reason, _ := strings.Cut(text, "--")
	return strings.TrimSpace(reason)
}

func collectDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{byLine: map[string]map[int][]string{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				verb, ok := parseDirective(c.Text)
				if !ok {
					d.Unknown = append(d.Unknown, Unknown{Pos: c.Pos(), Text: c.Text})
					continue
				}
				pos := fset.Position(c.Pos())
				lines := d.byLine[pos.Filename]
				if lines == nil {
					lines = map[int][]string{}
					d.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], verb)
				lines[pos.Line+1] = append(lines[pos.Line+1], verb)
			}
		}
		// Doc-comment directives cover the whole declaration they
		// document (function bodies in practice).
		ast.Inspect(f, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				return true
			}
			for _, c := range fn.Doc.List {
				if verb, ok := parseDirective(c.Text); ok {
					d.funcRanges = append(d.funcRanges, funcDirective{verb: verb, from: fn.Pos(), to: fn.End()})
				}
			}
			return true
		})
	}
	return d
}

// SuppressedAt reports whether any of the verbs is granted at pos.
func (d *Directives) SuppressedAt(fset *token.FileSet, pos token.Pos, verbs ...string) bool {
	p := fset.Position(pos)
	for _, verb := range d.byLine[p.Filename][p.Line] {
		for _, want := range verbs {
			if verb == want {
				return true
			}
		}
	}
	for _, fr := range d.funcRanges {
		if pos < fr.from || pos >= fr.to {
			continue
		}
		for _, want := range verbs {
			if fr.verb == want {
				return true
			}
		}
	}
	return false
}

// FuncAnnotated reports whether fn's doc comment carries the verb.
func FuncAnnotated(fn *ast.FuncDecl, verb string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if v, ok := parseDirective(c.Text); ok && v == verb {
			return true
		}
	}
	return false
}
