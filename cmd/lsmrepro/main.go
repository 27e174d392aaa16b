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
// lsmrepro runs core.Run, which holds the drained workload, the trace
// and the log in memory. For equal -scale, -days and -seed that is the
// workload lsmgen streams to disk, so at -scale 1 -days 28 (2.47M
// transfers, a few GB here) use lsmgen, then lsmcal or lsmchar.
package main

import (
	"flag"
	"fmt"
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
	if err := run(*scale, *days, *seed, *outdir); err != nil {
		fmt.Fprintln(os.Stderr, "lsmrepro:", err)
		os.Exit(1)
	}
}

func run(scale float64, days int, seed int64, outdir string) error {
	cfg, err := core.DefaultConfig(scale, days, seed)
	if err != nil {
		return err
	}
	fmt.Printf("reproduction run: scale 1/%.0f, %d days, seed %d\n", scale, days, seed)
	rep, err := core.Run(cfg)
	if err != nil {
		return err
	}

	fmt.Printf("\n%s\n", rep.Sanitize)
	fmt.Printf("server load audit: %.4f%% of active seconds below 10%% CPU, %.4f%% of transfers\n",
		rep.Audit.TimeBelowFrac*100, rep.Audit.TransferBelowFrac*100)
	fmt.Printf("peak concurrent transfers: %d\n\n", rep.Peak)

	if err := rep.Table1().Render(os.Stdout); err != nil {
		return err
	}

	comps := rep.Comparisons()
	fmt.Println("\nPaper vs measured (Table 2 and headline fits):")
	if err := report.MarkdownTable(os.Stdout, comps); err != nil {
		return err
	}

	if outdir != "" {
		figDir := filepath.Join(outdir, "figures")
		var count int
		for _, fig := range rep.Char.Figures() {
			for _, s := range fig.Series {
				if len(s.Points) == 0 {
					continue
				}
				if _, err := s.SaveDat(figDir); err != nil {
					return err
				}
				count++
			}
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
		fmt.Printf("\nwrote %d figure series under %s and comparisons to %s\n", count, figDir, compPath)
	}
	return nil
}
