// Capacity planning: the paper's motivating application (Section 1).
//
// "For live content, turning down a user's request amounts to denying
// access ... admission control is not a viable alternative. Capacity
// planning based on accurate understanding of workload characteristics
// becomes a necessity."
//
// This example uses the generative model as a capacity-planning tool: it
// sweeps the client population scale, simulates each workload, and
// reports the peak concurrent transfers and peak bandwidth the server
// must provision — including the tail risk (how much the busiest
// 15-minute window exceeds the average), which is exactly what the
// diurnal synchrony of live content creates.
//
// Run with:
//
//	go run ./examples/capacityplanning
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/analyze"
	"repro/internal/core"
	"repro/internal/gismo"
	"repro/internal/report"
	"repro/internal/simulate"
	"repro/internal/trace"
)

func main() {
	fmt.Println("Capacity planning for a live streaming service (3-day design trace)")
	fmt.Println()

	tbl := &report.Table{
		Title: "Provisioning requirements by audience scale",
		Headers: []string{
			"Scale (1/x)", "Sessions", "Transfers",
			"Peak conc.", "Mean conc.", "Peak/mean", "Peak Mbit/s",
		},
	}

	for _, scale := range []float64{400, 200, 100, 50} {
		row, err := planAt(scale)
		if err != nil {
			log.Fatal(err)
		}
		tbl.AddRow(row...)
	}
	if err := tbl.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Println("Reading the table: statistical multiplexing shrinks peak-to-mean as the")
	fmt.Println("audience grows, but the diurnal synchrony of live content keeps it well")
	fmt.Println("above 1 — capacity must track the PEAK column, not the mean. Admission")
	fmt.Println("control cannot shave it: rejected live viewers are lost, not deferred.")
}

func planAt(scale float64) ([]string, error) {
	m, err := gismo.Scaled(scale, 3)
	if err != nil {
		return nil, err
	}
	// The transfers the server logs, sanitized, as they are served: each
	// one's activity interval for the concurrency profile, and its
	// average bandwidth summed.
	var intervals []analyze.Interval
	var bwSum float64
	_, sessions, _, err := core.ServeRows(m, simulate.DefaultConfig(), 1234, func(t *trace.Transfer) {
		intervals = append(intervals, analyze.Interval{Start: t.Start, End: t.End()})
		bwSum += float64(t.Bandwidth)
	}, nil)
	if err != nil {
		return nil, err
	}

	// Concurrency profile of transfers.
	conc, err := analyze.Concurrency(intervals, m.Horizon)
	if err != nil {
		return nil, err
	}
	meanConc := mean(conc.Binned.Values)
	peakConc := conc.Binned.Max()

	// Peak bandwidth: admitted transfers during the busiest 15-minute
	// window, each at its average transfer bandwidth. Approximate with
	// peak concurrency x mean per-transfer bandwidth.
	meanBw := bwSum / float64(len(intervals))
	peakMbps := peakConc * meanBw / 1e6

	ratio := 0.0
	if meanConc > 0 {
		ratio = peakConc / meanConc
	}
	return []string{
		fmt.Sprintf("%.0f", scale),
		fmt.Sprintf("%d", sessions),
		fmt.Sprintf("%d", len(intervals)),
		fmt.Sprintf("%.0f", peakConc),
		fmt.Sprintf("%.1f", meanConc),
		fmt.Sprintf("%.1fx", ratio),
		fmt.Sprintf("%.1f", peakMbps),
	}, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
