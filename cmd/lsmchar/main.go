// Command lsmchar runs the hierarchical characterization of Veloso et al.
// (IMC 2002) over a directory of Windows-Media-Server-style log files:
// sanitization (Section 2.4), client layer (Section 3), session layer
// (Section 4), and transfer layer (Section 5).
//
// Usage:
//
//	lsmchar -logs logs/ -days 7 [-timeout 1500] [-figs figures/]
//	        [-cpuprofile f] [-memprofile f] [-trace f]
//
// It prints Table 1 and the fitted distributions, and with -figs writes
// one gnuplot-style .dat file per figure panel.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/prof"
	"repro/internal/report"
)

func main() {
	var (
		logs    = flag.String("logs", "", "directory of wms-*.log files (required)")
		days    = flag.Int("days", 7, "trace horizon in days")
		timeout = flag.Int64("timeout", 1500, "session timeout T_o in seconds")
		figs    = flag.String("figs", "", "optional directory for figure .dat files")
		seed    = flag.Int64("seed", 1, "seed for the Figure 6 Poisson replica")
		plot    = flag.String("plot", "", "render one figure as ASCII (e.g. fig19); 'list' shows ids")

		profiles prof.Profiles
	)
	profiles.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if *logs == "" {
		fmt.Fprintln(os.Stderr, "lsmchar: -logs is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := profiles.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "lsmchar:", err)
		os.Exit(1)
	}
	err := run(*logs, *days, *timeout, *figs, *seed, *plot)
	if perr := profiles.Stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsmchar:", err)
		os.Exit(1)
	}
}

func run(logDir string, days int, timeout int64, figDir string, seed int64, plot string) error {
	clean, err := core.LoadLogs(logDir, days, os.Stdout)
	if err != nil {
		return err
	}
	audit := clean.AuditServerLoad(10)
	fmt.Printf("server load audit: %.4f%% of active time and %.4f%% of transfers below %.0f%% CPU\n",
		audit.TimeBelowFrac*100, audit.TransferBelowFrac*100, audit.Threshold)

	char, err := core.Characterize(clean, timeout, nil, seed)
	if err != nil {
		return err
	}
	printCharacterization(char)

	if figDir != "" {
		var count int
		for _, fig := range char.Figures() {
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
		fmt.Printf("wrote %d figure series under %s\n", count, figDir)
	}
	if plot != "" {
		return renderPlot(char, plot)
	}
	return nil
}

// renderPlot draws one figure's panels as ASCII scatter plots. The
// marginal figures render on log-log axes like the paper's panels.
func renderPlot(char *core.Characterization, id string) error {
	figs := char.Figures()
	if id == "list" {
		for _, f := range figs {
			fmt.Printf("  %s  %s\n", f.ID, f.Caption)
		}
		return nil
	}
	for _, f := range figs {
		if f.ID != id {
			continue
		}
		fmt.Printf("\n%s: %s\n\n", f.ID, f.Caption)
		for _, s := range f.Series {
			if len(s.Points) == 0 {
				continue
			}
			cfg := report.DefaultPlotConfig()
			// CCDF and rank-share panels live on log-log axes.
			if strings.Contains(s.Name, "ccdf") || strings.Contains(s.Name, "fig07") ||
				strings.Contains(s.Name, "fig02_as") || strings.Contains(s.Name, "hist") {
				cfg.LogX, cfg.LogY = true, true
			}
			if err := s.Plot(os.Stdout, cfg); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	}
	return fmt.Errorf("unknown figure %q (use -plot list)", id)
}

func printCharacterization(c *core.Characterization) {
	b := c.Basic
	fmt.Printf("\nTable 1 (measured): %d days, %d objects, %d ASes, %d IPs, %d users, %d sessions, %d transfers, %.2f GB\n",
		b.Days, b.Objects, b.ASes, b.IPs, b.Users, b.Sessions, b.Transfers, float64(b.TotalBytes)/1e9)

	fmt.Println("\nClient layer (Section 3):")
	fmt.Printf("  peak concurrent clients: %d\n", c.Client.Concurrency.Peak)
	fmt.Printf("  interest (transfers/client): %s\n", c.Client.InterestTransfers)
	fmt.Printf("  interest (sessions/client):  %s\n", c.Client.InterestSessions)
	if acf := c.Client.Concurrency.ACF(); len(acf) > 1440 {
		fmt.Printf("  ACF at 1-day lag: %.3f\n", acf[1440])
	}
	fmt.Printf("  piecewise-Poisson replica KS: %.4f (window %d s)\n", c.Poisson.KS, c.Poisson.Window)

	fmt.Println("\nSession layer (Section 4):")
	fmt.Printf("  ON times:  %s (KS %.4f)\n", c.Session.OnFit, c.Session.OnKS)
	if len(c.Session.OffTimes) > 0 {
		fmt.Printf("  OFF times: %s (KS %.4f)\n", c.Session.OffFit, c.Session.OffKS)
	}
	fmt.Printf("  transfers/session: %s\n", c.Session.PerSessionFit)
	fmt.Printf("  intra-session gaps: %s (KS %.4f)\n", c.Session.IntraFit, c.Session.IntraKS)
	fmt.Printf("  ON-vs-hour correlation R2: %.4f (weak per Figure 10)\n", c.Session.OnHourR2)

	fmt.Println("\nTransfer layer (Section 5):")
	fmt.Printf("  peak concurrent transfers: %d\n", c.Transfer.Concurrency.Peak)
	if c.Transfer.TailBody.Points > 0 {
		fmt.Printf("  interarrival tail (<=100 s): %s\n", c.Transfer.TailBody)
	}
	if c.Transfer.TailFar.Points > 0 {
		fmt.Printf("  interarrival tail (>100 s):  %s\n", c.Transfer.TailFar)
	}
	fmt.Printf("  lengths: %s (KS %.4f)\n", c.Transfer.LengthFit, c.Transfer.LengthKS)
	fmt.Printf("  bandwidth modes: %d detected, congestion-bound fraction %.3f\n",
		len(c.Transfer.BandwidthModes), c.Transfer.CongestionFrac)
	for _, m := range c.Transfer.BandwidthModes {
		fmt.Printf("    mode at %.0f bps (share %.3f)\n", m.Bps, m.Share)
	}
}
