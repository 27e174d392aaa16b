// Command lsmvet checks the repo's determinism, zero-allocation, and
// entry-lifetime contracts at the source level (DESIGN.md "Enforced
// invariants"): the byte-identical-logs and md5-equal-realization
// guarantees rest on invariants (no wall-clock or global-rand reads in
// deterministic packages, no allocating calls in //lsm:hotpath
// functions, never retaining a pooled *wmslog.Entry, unique splitmix
// seed lanes) that fixture-md5 tests only catch after the fact; lsmvet
// fails the diff that breaks them. It also fails an internal function
// that no program under cmd/ or examples/ reaches.
//
// Usage:
//
//	lsmvet [-list] [packages]
//
// Packages are directory patterns: `./...` (the default) walks the
// whole module; anything else is a directory holding one package.
// Exits 1 when any undirected diagnostic is found. Audited exceptions
// are granted in source with //lsm: directives (see -list).
//
// The suite is built on the standard library's go/types driven from
// source, not golang.org/x/tools (the build environment pins no
// external modules), so lsmvet runs standalone rather than as a `go
// vet -vettool` plugin.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and directive verbs, then exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: lsmvet [-list] [./... | package dirs]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.DefaultAnalyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("\n%s\n", lint.VerbHelp())
		return
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	l, err := lint.NewLoader(cwd)
	if err != nil {
		fatal(err)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var pkgs []*lint.Package
	for _, pat := range patterns {
		switch pat {
		case "./...", "...", "all":
			all, err := l.LoadAll()
			if err != nil {
				fatal(err)
			}
			pkgs = append(pkgs, all...)
		default:
			p, err := l.LoadDir(pat)
			if err != nil {
				fatal(err)
			}
			pkgs = append(pkgs, p)
		}
	}

	diags := lint.Run(l, pkgs, analyzers)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "lsmvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lsmvet:", err)
	os.Exit(2)
}
