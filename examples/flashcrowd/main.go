// Flash crowd: the paper's Section 6 observation that "the periodicity
// observed in our reality TV application is likely to be very different
// from that observed in (say) live feeds associated with a soccer game",
// and that the generative processes "can be easily adjusted".
//
// This example swaps only the arrival-rate profile — reality-show diurnal
// versus soccer-game event spike (the paper's Victoria's Secret webcast
// anecdote is the same failure mode) — and shows how the identical
// per-client behaviour model produces radically different load shapes:
// the soccer profile concentrates nearly the whole day's audience into a
// two-hour window.
//
// Run with:
//
//	go run ./examples/flashcrowd
package main

import (
	"fmt"
	"log"

	"repro/internal/analyze"
	"repro/internal/core"
	"repro/internal/gismo"
	"repro/internal/rate"
	"repro/internal/simulate"
	"repro/internal/trace"
)

func main() {
	fmt.Println("Flash-crowd study: same audience model, two live events")
	fmt.Println()

	// Reality show: the paper's diurnal profile.
	show, err := gismo.Scaled(100, 2)
	fatal(err)

	// Soccer game: same population, same per-session behaviour, but the
	// arrival profile is an event spike at 16:00 (kickoff).
	soccer := show
	profile, err := rate.SoccerGame(show.BaseArrivalRate, 16)
	fatal(err)
	soccer.Profile = profile

	showStats, err := study("reality show (diurnal)", show, 101)
	fatal(err)
	soccerStats, err := study("soccer game (event spike)", soccer, 102)
	fatal(err)

	fmt.Println()
	fmt.Printf("Peak-to-mean concurrency: reality show %.1fx, soccer %.1fx\n",
		showStats.peakToMean, soccerStats.peakToMean)
	fmt.Printf("Share of the day's transfers inside the busiest 2 hours: show %.0f%%, soccer %.0f%%\n",
		showStats.busiest2h*100, soccerStats.busiest2h*100)
	fmt.Println()
	fmt.Println("Same clients, same stickiness, same session structure — but capacity")
	fmt.Println("planning for the soccer feed must provision for an arrival spike the")
	fmt.Println("diurnal profile never produces. This is why the paper argues live-media")
	fmt.Println("characteristics are 'highly dependent on the nature of the live content'.")
}

type eventStats struct {
	peakToMean float64
	busiest2h  float64
}

func study(name string, m gismo.Model, seed int64) (eventStats, error) {
	// The transfers the server logs, sanitized, as they are served: each
	// one's activity interval for the concurrency profile, and its start
	// counted into its 15-minute bin.
	var intervals []analyze.Interval
	perBin := make([]int, (m.Horizon+899)/900)
	_, sessions, _, err := core.ServeRows(m, simulate.DefaultConfig(), seed, func(t *trace.Transfer) {
		intervals = append(intervals, analyze.Interval{Start: t.Start, End: t.End()})
		perBin[t.Start/900]++
	}, nil)
	if err != nil {
		return eventStats{}, err
	}
	conc, err := analyze.Concurrency(intervals, m.Horizon)
	if err != nil {
		return eventStats{}, err
	}

	peak := conc.Binned.Max()
	var sum float64
	for _, v := range conc.Binned.Values {
		sum += v
	}
	meanV := sum / float64(len(conc.Binned.Values))

	// Busiest contiguous 2-hour (8-bin) window share of transfer starts.
	best, window := 0, 8
	cur := 0
	for i, c := range perBin {
		cur += c
		if i >= window {
			cur -= perBin[i-window]
		}
		if cur > best {
			best = cur
		}
	}

	fmt.Printf("%-28s %7d sessions %8d transfers, peak concurrency %4.0f\n",
		name+":", sessions, len(intervals), peak)

	return eventStats{
		peakToMean: peak / meanV,
		busiest2h:  float64(best) / float64(len(intervals)),
	}, nil
}

func fatal(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
