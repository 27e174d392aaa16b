package core

import (
	"repro/internal/report"
	"repro/internal/stats"
)

// Figure is one reproduced paper figure: its identifier, caption, and the
// data series of its panels.
type Figure struct {
	ID      string // e.g. "fig04"
	Caption string
	Series  []report.Series
}

// Plots renders every reproduced figure's data series from a
// characterization made by Characterize: an Observe result carries no
// figure material, and Plots panics on one. The returned slice is
// ordered by figure number.
func (c *Characterization) Plots() []Figure {
	if c.Figures == nil {
		panic("core: Plots of a characterization without figure material (Observe); use Characterize")
	}
	fd := c.Figures
	var out []Figure

	out = append(out, Figure{
		ID:      "fig02",
		Caption: "Client diversity: transfers over ASes, IPs over ASes, transfers over countries",
		Series: []report.Series{
			report.FromRankShare("fig02_as_transfers", c.Divers.ASTransferShare),
			report.FromRankShare("fig02_as_ips", c.Divers.ASIPShare),
			countrySeries("fig02_countries", c.Divers.CountryShare),
		},
	})

	cm := c.Client.Concurrency
	out = append(out, Figure{
		ID:      "fig03",
		Caption: "Marginal distribution of number of active clients",
		Series: []report.Series{
			report.FromECDFCDF("fig03_cdf", cm.Marginal),
			report.FromECDFCCDF("fig03_ccdf", cm.Marginal),
		},
	})
	out = append(out, Figure{
		ID:      "fig04",
		Caption: "Temporal behavior of number of active clients",
		Series: []report.Series{
			report.FromBinned("fig04_trace", cm.Binned, "seconds", "clients"),
			report.FromBinned("fig04_week", cm.WeekFold, "seconds mod week", "clients"),
			report.FromBinned("fig04_day", cm.DayFold, "seconds mod day", "clients"),
		},
	})

	interECDF := stats.NewECDF(c.Client.Interarrivals)
	out = append(out, Figure{
		ID:      "fig05",
		Caption: "Marginal distribution of client interarrival times",
		Series: []report.Series{
			report.FromECDFCDF("fig05_cdf", interECDF),
			report.FromECDFCCDF("fig05_ccdf", interECDF),
		},
	})

	if len(fd.Poisson.Interarrivals) > 0 {
		pECDF := stats.NewECDF(fd.Poisson.Interarrivals)
		out = append(out, Figure{
			ID:      "fig06",
			Caption: "Interarrival times from a piecewise-stationary Poisson process",
			Series: []report.Series{
				report.FromECDFCDF("fig06_cdf", pECDF),
				report.FromECDFCCDF("fig06_ccdf", pECDF),
			},
		})
	}

	out = append(out, Figure{
		ID:      "fig07",
		Caption: "Client interest profile: transfer and session frequency vs client rank",
		Series: []report.Series{
			report.FromRankShare("fig07_transfers", stats.RankFrequencies(fd.Client.TransfersPerClient)),
			report.FromRankShare("fig07_sessions", stats.RankFrequencies(c.Client.SessionsPerClient)),
		},
	})

	out = append(out, Figure{
		ID:      "fig08",
		Caption: "Autocorrelation of number of clients over time (minute lags)",
		Series:  []report.Series{report.FromACF("fig08_acf", cm.ACF())},
	})

	sweepPts := make([]stats.Point, len(fd.Sweep))
	for i, p := range fd.Sweep {
		sweepPts[i] = stats.Point{X: float64(p.Timeout), Y: float64(p.Sessions)}
	}
	out = append(out, Figure{
		ID:      "fig09",
		Caption: "Number of sessions identified vs session timeout T_o",
		Series: []report.Series{{
			Name: "fig09_sweep", XLabel: "T_o (s)", YLabel: "sessions", Points: sweepPts,
		}},
	})

	hourPts := make([]stats.Point, 24)
	for h := 0; h < 24; h++ {
		hourPts[h] = stats.Point{X: float64(h), Y: fd.Session.OnByHour[h]}
	}
	out = append(out, Figure{
		ID:      "fig10",
		Caption: "Session ON time versus session starting hour",
		Series: []report.Series{{
			Name: "fig10_on_by_hour", XLabel: "hour", YLabel: "mean ON (s)", Points: hourPts,
		}},
	})

	onECDF := c.Session.OnMarginal()
	out = append(out, Figure{
		ID:      "fig11",
		Caption: "Marginal distribution of session ON times (lognormal body)",
		Series: []report.Series{
			report.FromECDFCDF("fig11_cdf", onECDF),
			report.FromECDFCCDF("fig11_ccdf", onECDF),
		},
	})

	offECDF := c.Session.OffMarginal()
	out = append(out, Figure{
		ID:      "fig12",
		Caption: "Marginal distribution of session OFF times (exponential)",
		Series: []report.Series{
			report.FromECDFCDF("fig12_cdf", offECDF),
			report.FromECDFCCDF("fig12_ccdf", offECDF),
		},
	})

	psECDF := stats.NewECDF(stats.SortedFloats(c.Session.TransfersPerSession))
	out = append(out, Figure{
		ID:      "fig13",
		Caption: "Marginal distribution of number of transfers per session (Zipf)",
		Series: []report.Series{
			report.FromECDFCDF("fig13_cdf", psECDF),
			report.FromECDFCCDF("fig13_ccdf", psECDF),
		},
	})

	intraECDF := stats.NewECDF(c.Session.IntraArrivals)
	out = append(out, Figure{
		ID:      "fig14",
		Caption: "Marginal distribution of transfer interarrivals within a session (lognormal)",
		Series: []report.Series{
			report.FromECDFCDF("fig14_cdf", intraECDF),
			report.FromECDFCCDF("fig14_ccdf", intraECDF),
		},
	})

	tm := c.Transfer.Concurrency
	out = append(out, Figure{
		ID:      "fig15",
		Caption: "Marginal distribution of concurrent transfers",
		Series: []report.Series{
			report.FromECDFCDF("fig15_cdf", tm.Marginal),
			report.FromECDFCCDF("fig15_ccdf", tm.Marginal),
		},
	})
	out = append(out, Figure{
		ID:      "fig16",
		Caption: "Temporal behavior of number of concurrent transfers",
		Series: []report.Series{
			report.FromBinned("fig16_trace", tm.Binned, "seconds", "transfers"),
			report.FromBinned("fig16_week", tm.WeekFold, "seconds mod week", "transfers"),
			report.FromBinned("fig16_day", tm.DayFold, "seconds mod day", "transfers"),
		},
	})

	taECDF := stats.NewECDF(c.Transfer.Interarrivals)
	out = append(out, Figure{
		ID:      "fig17",
		Caption: "Marginal distribution of transfer interarrival times (two-regime tail)",
		Series: []report.Series{
			report.FromECDFCDF("fig17_cdf", taECDF),
			report.FromECDFCCDF("fig17_ccdf", taECDF),
		},
	})
	out = append(out, Figure{
		ID:      "fig18",
		Caption: "Temporal behavior of transfer interarrival times",
		Series: []report.Series{
			report.FromBinned("fig18_trace", fd.Transfer.InterarrivalBinned, "seconds", "interarrival (s)"),
			report.FromBinned("fig18_week", fd.Transfer.InterarrivalWeek, "seconds mod week", "interarrival (s)"),
			report.FromBinned("fig18_day", fd.Transfer.InterarrivalDay, "seconds mod day", "interarrival (s)"),
		},
	})

	lenECDF := stats.NewECDF(c.Transfer.Lengths)
	out = append(out, Figure{
		ID:      "fig19",
		Caption: "Marginal distribution of transfer lengths (lognormal, client stickiness)",
		Series: []report.Series{
			report.FromECDFCDF("fig19_cdf", lenECDF),
			report.FromECDFCCDF("fig19_ccdf", lenECDF),
		},
	})

	bwSeries := bandwidthHistogram("fig20_hist", fd.Transfer.Bandwidths)
	bwECDF := stats.NewECDF(fd.Transfer.Bandwidths)
	out = append(out, Figure{
		ID:      "fig20",
		Caption: "Transfer bandwidth: bimodal frequency and cumulative distribution",
		Series: []report.Series{
			bwSeries,
			report.FromECDFCDF("fig20_cdf", bwECDF),
		},
	})

	return out
}

// SaveFigures writes every non-empty series of Plots as a .dat file
// under dir (report.Series.SaveDat) and returns how many it wrote.
func (c *Characterization) SaveFigures(dir string) (int, error) {
	var count int
	for _, fig := range c.Plots() {
		for _, s := range fig.Series {
			if len(s.Points) == 0 {
				continue
			}
			if _, err := s.SaveDat(dir); err != nil {
				return count, err
			}
			count++
		}
	}
	return count, nil
}

func countrySeries(name string, shares map[string]float64) report.Series {
	// Render in the paper's fixed country order where present.
	order := []string{"BR", "US", "AR", "JP", "DE", "CH", "AU", "BE", "BO", "SG", "SV"}
	pts := make([]stats.Point, 0, len(order))
	for i, country := range order {
		if share, ok := shares[country]; ok {
			pts = append(pts, stats.Point{X: float64(i + 1), Y: share})
		}
	}
	return report.Series{Name: name, XLabel: "country index (BR..SV)", YLabel: "share of transfers", Points: pts}
}

func bandwidthHistogram(name string, bws []float64) report.Series {
	if len(bws) == 0 {
		return report.Series{Name: name}
	}
	maxV := 0.0
	for _, b := range bws {
		if b > maxV {
			maxV = b
		}
	}
	h, err := stats.NewLogHistogram(100, maxV+1, 200)
	if err != nil {
		return report.Series{Name: name}
	}
	h.AddAll(bws)
	return report.FromHistogram(name, h)
}
