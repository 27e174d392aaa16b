// Command lsmrepro runs the full reproduction loop of Veloso et al.
// (IMC 2002): it instantiates the generative model with the paper's
// Table 2 parameters, generates and serves a synthetic workload, runs the
// hierarchical characterization, and reports every paper-versus-measured
// comparison — the material behind EXPERIMENTS.md.
//
// Usage:
//
//	lsmrepro [-scale 150] [-days 7] [-seed 1] [-outdir repro-out/]
//
// lsmrepro runs core.Run: generation streams straight into the
// simulator, whose rows are characterized as they are served — no trace
// is built, so what is held is the observer's state, and paper scale
// (-scale 1 -days 28, 2.47M transfers) peaks near 0.4 GB. For equal
// -scale, -days and -seed it characterizes the workload lsmgen writes
// to disk.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/report"
)

func main() {
	var (
		scale  = flag.Float64("scale", 150, "population/rate scale-down factor (1 = paper scale)")
		days   = flag.Int("days", 7, "trace length in days (paper: 28)")
		seed   = flag.Int64("seed", 1, "random seed")
		outdir = flag.String("outdir", "", "optional output directory for figures and comparisons")
	)
	flag.Parse()
	if err := run(os.Stdout, *scale, *days, *seed, *outdir); err != nil {
		fmt.Fprintln(os.Stderr, "lsmrepro:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, scale float64, days int, seed int64, outdir string) error {
	cfg, err := core.DefaultConfig(scale, days, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "reproduction run: scale 1/%.0f, %d days, seed %d\n", scale, days, seed)
	rep, err := core.Run(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "\n%s\n", rep.Sanitize)
	fmt.Fprintf(w, "server load audit: %.4f%% of active seconds below 10%% CPU, %.4f%% of transfers\n",
		rep.Audit.TimeBelowFrac*100, rep.Audit.TransferBelowFrac*100)
	fmt.Fprintf(w, "peak concurrent transfers: %d\n\n", rep.Peak)

	if err := rep.Table1().Render(w); err != nil {
		return err
	}

	comps := rep.Comparisons()
	fmt.Fprintln(w, "\nPaper vs measured (Table 2 and headline fits):")
	if err := report.MarkdownTable(w, comps); err != nil {
		return err
	}

	if outdir != "" {
		figDir := filepath.Join(outdir, "figures")
		count, err := rep.Char.SaveFigures(figDir)
		if err != nil {
			return err
		}
		compPath := filepath.Join(outdir, "comparisons.md")
		f, err := os.Create(compPath)
		if err != nil {
			return err
		}
		err = report.MarkdownTable(f, comps)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %d figure series under %s and comparisons to %s\n", count, figDir, compPath)
	}
	return nil
}
