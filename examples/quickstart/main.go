// Quickstart: generate a laptop-scale live streaming workload with the
// paper's Table 2 parameters, run the full hierarchical characterization,
// and print the headline fits next to the values Veloso et al. (IMC 2002)
// report.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/report"
)

func main() {
	// 1/100 of the paper's population and arrival rate over 7 of its 28
	// days: a few seconds of compute, same distributional structure.
	cfg, err := core.DefaultConfig(100, 7, 1)
	if err != nil {
		log.Fatal(err)
	}

	rep, err := core.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== A Hierarchical Characterization of a Live Streaming Media Workload ==")
	fmt.Println("   (synthetic reproduction; see DESIGN.md for the substitution record)")
	fmt.Println()
	if err := rep.Table1().Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	c := rep.Char
	fmt.Println("\nThe paper's headline structure, recovered from the synthetic trace:")
	fmt.Printf("  object-driven access: %d clients share %d live objects\n",
		c.Basic.Users, c.Basic.Objects)
	fmt.Printf("  client interest is Zipf-like:   %s\n", c.Client.InterestSessions)
	fmt.Printf("  session ON times are lognormal: %s\n", c.Session.OnFit)
	fmt.Printf("  session OFF times exponential:  %s\n", c.Session.OffFit)
	fmt.Printf("  transfers/session are Zipf:     %s\n", c.Session.PerSessionFit)
	fmt.Printf("  transfer lengths are lognormal: %s (client stickiness, not object size)\n",
		c.Transfer.LengthFit)
	if acf := c.Client.Concurrency.ACF(); len(acf) > 1440 {
		fmt.Printf("  diurnal synchrony: ACF of c(t) at the 1-day lag = %.3f\n", acf[1440])
	}
	fmt.Printf("  piecewise-Poisson arrivals match measured interarrivals: KS = %.4f\n",
		c.Poisson.KS)

	fmt.Println("\nPaper vs measured:")
	if err := report.MarkdownTable(os.Stdout, rep.Comparisons()); err != nil {
		log.Fatal(err)
	}
}
