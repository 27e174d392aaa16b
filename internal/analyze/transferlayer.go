package analyze

import (
	"fmt"
	"slices"

	"repro/internal/dist"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TailSplit is the boundary between Figure 17's two interarrival tail
// regimes: α ≈ 2.8 below 100 seconds, α ≈ 1 above.
const TailSplit = 100.0

// TransferLayer is the Section 5 characterization as the calibration
// loop reads it: transfer concurrency, interarrivals and lengths. The
// figure-only remainder is TransferFigures (DescribeTransferLayer).
//
// The two float samples are stored sorted ascending: each is put in
// order once, after the last analysis that reads it in trace order, and
// every later reader takes it in place.
type TransferLayer struct {
	// Concurrency is the number of simultaneously active transfers
	// (Figures 15 and 16).
	Concurrency *ConcurrencyReport

	// Interarrivals are the gaps between consecutive transfer starts
	// across all clients (Figure 17), in display form ⌊t+1⌋, sorted.
	Interarrivals []float64

	// Lengths are the transfer lengths l(j) in display form, sorted;
	// LengthFit is the lognormal fit (Figure 19; paper: μ = 4.383921,
	// σ = 1.427247).
	Lengths   []float64
	LengthFit dist.Lognormal
}

// TransferFigures is the part of the Section 5 characterization only
// the figures and the paper comparison read.
type TransferFigures struct {
	// TailBody and TailFar are the two power-law regimes of the
	// interarrival CCDF (Figure 17 right; paper: α≈2.8 then α≈1).
	TailBody dist.TailFit
	TailFar  dist.TailFit

	// InterarrivalBinned is the mean interarrival per 15-minute bin over
	// the trace, with weekly and daily folds (Figure 18).
	InterarrivalBinned stats.BinnedSeries
	InterarrivalWeek   stats.BinnedSeries
	InterarrivalDay    stats.BinnedSeries

	// LengthKS is the KS distance of TransferLayer.LengthFit (Figure 19).
	LengthKS float64

	// Bandwidths are the per-transfer average bandwidths (bits/second),
	// sorted; BandwidthModes are the detected client-bound spikes;
	// CongestionFrac estimates the congestion-bound share (Figure 20;
	// paper: ~10%).
	Bandwidths     []float64
	BandwidthModes []BandwidthMode
	CongestionFrac float64
}

// BandwidthMode is one detected spike in the bandwidth histogram.
type BandwidthMode struct {
	Bps   float64 // mode center
	Share float64 // fraction of transfers in the spike
}

// AnalyzeTransferLayer runs the Section 5 pipeline on a trace: a
// TransferAccumulator fed its transfers.
//
//lsm:keep -- benchmark/layers/analyze.go probe; ROADMAP item 4 deletes
func AnalyzeTransferLayer(tr *trace.Trace) (*TransferLayer, error) {
	if tr.NumTransfers() == 0 {
		return nil, fmt.Errorf("%w: empty trace", ErrBadInput)
	}
	a := NewTransferAccumulator(tr.Horizon, tr.NumTransfers(), false)
	for i := range tr.Transfers {
		a.Add(&tr.Transfers[i])
	}
	return a.Layer()
}

// TransferAccumulator is the Section 5 pipeline fed one transfer at a
// time, in the trace order: each transfer adds its concurrency event,
// its length and its gap from the previous start, and Layer sorts and
// fits what was gathered. Asked for the figure material too, it also
// bins each gap under the previous start (Figure 18) and keeps each
// transfer's bandwidth (Figure 20): Figures.
type TransferAccumulator struct {
	ev      *events
	evErr   error // why there are no events: a horizon they cannot have
	lengths []float64
	gaps    []float64
	last    int64 // the previous transfer's start

	bins       *stats.MeanBins // the gaps by the 15-minute bin of the earlier start; nil without figures or events
	bandwidths []float64       // nil without figures
}

// NewTransferAccumulator returns an empty accumulator for a trace of
// horizon seconds, with room for sizeHint transfers, that gathers the
// figure material too if figures is set.
func NewTransferAccumulator(horizon int64, sizeHint int, figures bool) *TransferAccumulator {
	ev, err := newEvents(sizeHint, horizon)
	a := &TransferAccumulator{
		ev:      ev,
		evErr:   err,
		lengths: make([]float64, 0, sizeHint),
		gaps:    make([]float64, 0, max(sizeHint-1, 0)),
	}
	if figures {
		if err == nil { // a horizon the events take, the bins take too
			a.bins, _ = stats.NewMeanBins(horizon, TemporalBin)
		}
		a.bandwidths = make([]float64, 0, sizeHint)
	}
	return a
}

// Add takes the next transfer in the trace order.
func (a *TransferAccumulator) Add(t *trace.Transfer) {
	if a.ev != nil {
		a.ev.add(t.Start, t.End())
	}
	if len(a.lengths) > 0 {
		gap := stats.LogDisplayValue(float64(t.Start - a.last))
		a.gaps = append(a.gaps, gap)
		if a.bins != nil {
			a.bins.Add(a.last, gap)
		}
	}
	a.last = t.Start
	a.lengths = append(a.lengths, stats.LogDisplayValue(float64(t.Duration)))
	if a.bandwidths != nil {
		a.bandwidths = append(a.bandwidths, float64(t.Bandwidth))
	}
}

// Layer finishes the pipeline: the concurrency report, the sorted
// interarrivals, and the length fit on the lengths in trace order
// before they are sorted. The layer takes over what was gathered.
func (a *TransferAccumulator) Layer() (*TransferLayer, error) {
	if len(a.lengths) == 0 {
		return nil, fmt.Errorf("%w: empty trace", ErrBadInput)
	}
	if a.evErr != nil {
		return nil, a.evErr
	}
	out := &TransferLayer{Interarrivals: a.gaps, Lengths: a.lengths}
	var err error
	if out.Concurrency, err = a.ev.report(); err != nil {
		return nil, err
	}
	stats.SortInPlace(out.Interarrivals)

	// Transfer lengths: the fit sums in trace order, the readers take
	// the sorted sample.
	fit, err := dist.FitLognormal(out.Lengths)
	if err != nil {
		return nil, fmt.Errorf("transfer length fit: %w", err)
	}
	out.LengthFit = fit
	stats.SortInPlace(out.Lengths)
	return out, nil
}

// Figures returns the figure material the accumulator gathered — the
// interarrivals binned by the earlier start (Figure 18; empty below two
// transfers) and the bandwidths (Figure 20) — for DescribeTransferLayer;
// nil bandwidths if it was not asked to gather it.
func (a *TransferAccumulator) Figures() (binned stats.BinnedSeries, bandwidths []float64) {
	if a.bins != nil && len(a.lengths) > 1 {
		binned = a.bins.Series()
	}
	return binned, a.bandwidths
}

// DescribeTransferLayer computes the figure-only part of the Section 5
// characterization from its layer and the figure material gathered in
// the trace order (TransferAccumulator.Figures): the two interarrival
// tail regimes, the Figure 18 bins and their folds, the length fit's KS
// distance and the Figure 20 bandwidth sample and modes. The figures
// take over the bandwidths, sorted.
func DescribeTransferLayer(tl *TransferLayer, binned stats.BinnedSeries, bandwidths []float64) (*TransferFigures, error) {
	if len(tl.Lengths) == 0 {
		return nil, fmt.Errorf("%w: empty trace", ErrBadInput)
	}
	out := &TransferFigures{InterarrivalBinned: binned}
	out.fitInterarrivalTails(tl.Interarrivals)
	if week, err := binned.FoldModulo(7 * 86400); err == nil {
		out.InterarrivalWeek = week
	}
	if day, err := binned.FoldModulo(86400); err == nil {
		out.InterarrivalDay = day
	}
	var err error
	if out.LengthKS, err = dist.KolmogorovSmirnov(tl.Lengths, tl.LengthFit.CDF); err != nil {
		return nil, err
	}
	out.Bandwidths = bandwidths
	stats.SortInPlace(out.Bandwidths)
	out.BandwidthModes, out.CongestionFrac = detectBandwidthModes(out.Bandwidths)
	return out, nil
}

// fitInterarrivalTails fits the two regimes of the sorted interarrival
// sample's CCDF. Either fit may fail on a short trace; a zero TailFit
// marks "not estimable".
func (tf *TransferFigures) fitInterarrivalTails(sorted []float64) {
	if len(sorted) < 10 {
		return
	}
	if fit, err := dist.FitTail(sorted, 2, TailSplit); err == nil {
		tf.TailBody = fit
	}
	if maxV := slices.Max(sorted); maxV > TailSplit*2 {
		if fit, err := dist.FitTail(sorted, TailSplit, maxV); err == nil {
			tf.TailFar = fit
		}
	}
}

// detectBandwidthModes finds spikes in the bandwidth distribution: values
// are clustered within a ±5% relative window; clusters holding at least
// 1% of transfers count as client-bound modes. The congestion share is
// the fraction of transfers below half the smallest mode center. A
// sample in sorted form is read in place (stats.SortedView).
func detectBandwidthModes(bws []float64) ([]BandwidthMode, float64) {
	if len(bws) == 0 {
		return nil, 0
	}
	sorted := stats.SortedView(bws)

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
