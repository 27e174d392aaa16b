package analyze

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TailSplit is the boundary between Figure 17's two interarrival tail
// regimes: α ≈ 2.8 below 100 seconds, α ≈ 1 above.
const TailSplit = 100.0

// TransferLayer is the Section 5 characterization: transfer concurrency,
// interarrivals (with the two-regime tail), lengths, and bandwidth.
type TransferLayer struct {
	// Concurrency is the number of simultaneously active transfers
	// (Figures 15 and 16).
	Concurrency *ConcurrencyReport

	// Interarrivals are the gaps between consecutive transfer starts
	// across all clients (Figure 17), in display form ⌊t+1⌋.
	Interarrivals []float64
	// TailBody and TailFar are the two power-law regimes of the
	// interarrival CCDF (Figure 17 right; paper: α≈2.8 then α≈1).
	TailBody dist.TailFit
	TailFar  dist.TailFit

	// InterarrivalBinned is the mean interarrival per 15-minute bin over
	// the trace, with weekly and daily folds (Figure 18).
	InterarrivalBinned stats.BinnedSeries
	InterarrivalWeek   stats.BinnedSeries
	InterarrivalDay    stats.BinnedSeries

	// Lengths are the transfer lengths l(j) in display form; LengthFit is
	// the lognormal fit (Figure 19; paper: μ = 4.383921, σ = 1.427247).
	Lengths   []float64
	LengthFit dist.Lognormal
	LengthKS  float64

	// Bandwidths are the per-transfer average bandwidths (bits/second);
	// BandwidthModes are the detected client-bound spikes; CongestionFrac
	// estimates the congestion-bound share (Figure 20; paper: ~10%).
	Bandwidths     []float64
	BandwidthModes []BandwidthMode
	CongestionFrac float64
}

// BandwidthMode is one detected spike in the bandwidth histogram.
type BandwidthMode struct {
	Bps   float64 // mode center
	Share float64 // fraction of transfers in the spike
}

// AnalyzeTransferLayer runs the Section 5 pipeline on a trace.
func AnalyzeTransferLayer(tr *trace.Trace) (*TransferLayer, error) {
	if tr.NumTransfers() == 0 {
		return nil, fmt.Errorf("%w: empty trace", ErrBadInput)
	}
	// One walk over the trace fills every per-transfer column the
	// analyses below read; starts are read off the rows.
	n := tr.NumTransfers()
	ev, err := newEvents(n, tr.Horizon)
	if err != nil {
		return nil, err
	}
	out := &TransferLayer{Lengths: make([]float64, n), Bandwidths: make([]float64, n)}
	for i := range tr.Transfers {
		t := &tr.Transfers[i]
		ev.add(t.Start, t.End())
		out.Lengths[i] = stats.LogDisplayValue(float64(t.Duration))
		out.Bandwidths[i] = float64(t.Bandwidth)
	}

	// Concurrency of transfers.
	if out.Concurrency, err = ev.report(); err != nil {
		return nil, err
	}

	// Interarrivals across all transfers (trace is start-sorted).
	out.Interarrivals = make([]float64, n-1)
	for i := range out.Interarrivals {
		out.Interarrivals[i] = stats.LogDisplayValue(float64(tr.Transfers[i+1].Start - tr.Transfers[i].Start))
	}
	if err := out.fitInterarrivalTails(); err != nil {
		return nil, err
	}
	if err := out.binInterarrivals(tr); err != nil {
		return nil, err
	}

	// Transfer lengths.
	fit, err := dist.FitLognormal(out.Lengths)
	if err != nil {
		return nil, fmt.Errorf("transfer length fit: %w", err)
	}
	out.LengthFit = fit
	if out.LengthKS, err = dist.KolmogorovSmirnov(out.Lengths, fit.CDF); err != nil {
		return nil, err
	}

	// Bandwidth modes.
	out.BandwidthModes, out.CongestionFrac = detectBandwidthModes(out.Bandwidths)
	return out, nil
}

// fitInterarrivalTails fits the two regimes of the interarrival CCDF.
// Either fit may fail on a short trace; a zero TailFit marks "not
// estimable".
func (tl *TransferLayer) fitInterarrivalTails() error {
	if len(tl.Interarrivals) < 10 {
		return nil
	}
	if fit, err := dist.FitTail(tl.Interarrivals, 2, TailSplit); err == nil {
		tl.TailBody = fit
	}
	maxV := 0.0
	for _, x := range tl.Interarrivals {
		if x > maxV {
			maxV = x
		}
	}
	if maxV > TailSplit*2 {
		if fit, err := dist.FitTail(tl.Interarrivals, TailSplit, maxV); err == nil {
			tl.TailFar = fit
		}
	}
	return nil
}

// binInterarrivals computes the Figure 18 temporal views: each
// interarrival sample (in display form: rounded up to the closest
// second, minimum 1) is attributed to the 15-minute bin of the earlier
// transfer's start.
func (tl *TransferLayer) binInterarrivals(tr *trace.Trace) error {
	if len(tl.Interarrivals) == 0 {
		return nil
	}
	bins, err := stats.NewMeanBins(tr.Horizon, TemporalBin)
	if err != nil {
		return err
	}
	for i, gap := range tl.Interarrivals {
		bins.Add(tr.Transfers[i].Start, gap)
	}
	binned := bins.Series()
	tl.InterarrivalBinned = binned
	if week, err := binned.FoldModulo(7 * 86400); err == nil {
		tl.InterarrivalWeek = week
	}
	if day, err := binned.FoldModulo(86400); err == nil {
		tl.InterarrivalDay = day
	}
	return nil
}

// detectBandwidthModes finds spikes in the bandwidth distribution: values
// are clustered within a ±5% relative window; clusters holding at least
// 1% of transfers count as client-bound modes. The congestion share is
// the fraction of transfers below half the smallest mode center.
func detectBandwidthModes(bws []float64) ([]BandwidthMode, float64) {
	if len(bws) == 0 {
		return nil, 0
	}
	sorted := stats.SortedCopy(bws)

	n := float64(len(sorted))
	var modes []BandwidthMode
	i := 0
	for i < len(sorted) {
		center := sorted[i]
		j := i
		for j < len(sorted) && sorted[j] <= center*1.10 {
			j++
		}
		share := float64(j-i) / n
		if share >= 0.01 && center > 0 {
			// Refine the center to the cluster median.
			modes = append(modes, BandwidthMode{
				Bps:   sorted[(i+j)/2],
				Share: share,
			})
		}
		i = j
	}
	if len(modes) == 0 {
		return modes, 0
	}
	// Everything outside a client-bound spike is congestion-bound: the
	// Figure 20 left mode is a continuum, not a spike, so it is exactly
	// the probability mass the spikes do not explain.
	var spikeMass float64
	for _, m := range modes {
		spikeMass += m.Share
	}
	congestion := 1 - spikeMass
	if congestion < 0 {
		congestion = 0
	}
	return modes, congestion
}
