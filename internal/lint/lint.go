package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding, position-resolved.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one checking pass. Run is invoked once per package;
// Finish, if set, once after every package has been visited (for
// repo-wide checks like seedlane). Analyzers carrying per-run state are
// built fresh by their New* constructor for every Run call.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(pass *Pass)
	// Finish reports cross-package findings. Suppression is the
	// analyzer's job here: it holds the package a position belongs to,
	// the driver does not.
	Finish func(report func(pos token.Position, format string, args ...any))
}

// Pass hands one package to one analyzer.
type Pass struct {
	Loader   *Loader
	Pkg      *Package
	analyzer *Analyzer
	sink     *runSink
}

// Fset returns the file set shared by every package in the run.
func (p *Pass) Fset() *token.FileSet { return p.Loader.Fset }

// Suppressed reports whether a diagnostic at pos is covered by an
// //lsm: directive granting one of the verbs.
func (p *Pass) Suppressed(pos token.Pos, verbs ...string) bool {
	return p.Pkg.Directives.SuppressedAt(p.Loader.Fset, pos, verbs...)
}

// Reportf records a diagnostic unless a directive with one of the
// verbs covers pos.
func (p *Pass) Reportf(pos token.Pos, verbs []string, format string, args ...any) {
	if len(verbs) > 0 && p.Suppressed(pos, verbs...) {
		return
	}
	p.sink.add(Diagnostic{
		Analyzer: p.analyzer.Name,
		Pos:      p.Loader.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

type runSink struct {
	diags []Diagnostic
}

func (s *runSink) add(d Diagnostic) { s.diags = append(s.diags, d) }

// Run applies the analyzers to the packages and returns the surviving
// diagnostics in a stable (file, line, column, analyzer) order.
// Unknown //lsm: directives are themselves diagnostics: a typoed
// suppression must fail loudly.
func Run(l *Loader, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	sink := &runSink{}
	for _, pkg := range pkgs {
		for _, u := range pkg.Directives.Unknown {
			sink.add(Diagnostic{
				Analyzer: "directive",
				Pos:      l.Fset.Position(u.Pos),
				Message:  fmt.Sprintf("unknown //lsm: directive %q (want one of %s)", u.Text, strings.Join(Verbs(), ", ")),
			})
		}
	}
	for _, a := range analyzers {
		if a.Run != nil {
			for _, pkg := range pkgs {
				a.Run(&Pass{Loader: l, Pkg: pkg, analyzer: a, sink: sink})
			}
		}
		if a.Finish != nil {
			name := a.Name
			a.Finish(func(pos token.Position, format string, args ...any) {
				sink.add(Diagnostic{
					Analyzer: name,
					Pos:      pos,
					Message:  fmt.Sprintf(format, args...),
				})
			})
		}
	}
	sort.Slice(sink.diags, func(i, j int) bool {
		a, b := sink.diags[i], sink.diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return sink.diags
}
