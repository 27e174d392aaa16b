package analyze

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/sessions"
	"repro/internal/stats"
)

// SessionLayer is the Section 4 characterization as the calibration
// loop reads it: session ON/OFF times, transfers per session, and
// intra-session transfer interarrivals, with the fits the model takes.
// The figure-only remainder is SessionFigures (DescribeSessionLayer).
//
// The three float samples are stored sorted ascending, each in the form
// every reader takes it in, so the fits' KS tests, the figures' ECDFs
// and calibrate.Validate read them in place.
type SessionLayer struct {
	// OnTimes holds l(i) for every session in the ⌊t+1⌋ display form,
	// sorted; OnFit is the lognormal body fit on it (Figure 11; paper:
	// μ = 5.23553, σ = 1.54432).
	OnTimes []float64
	OnFit   dist.Lognormal

	// OffTimes holds f(i) for consecutive same-client sessions in
	// seconds, sorted (Figure 12).
	OffTimes []float64

	// TransfersPerSession holds each session's transfer count;
	// PerSessionFit is its Zipf frequency fit (Figure 13; paper:
	// α = 2.70417).
	TransfersPerSession []int
	PerSessionFit       dist.ZipfFit

	// IntraArrivals holds the within-session transfer interarrival times
	// in the ⌊t+1⌋ display form, sorted; IntraFit is the lognormal fit on
	// it (Figure 14; paper: μ = 4.89991, σ = 1.32074).
	IntraArrivals []float64
	IntraFit      dist.Lognormal
}

// SessionFigures is the part of the Section 4 characterization only the
// figures and the paper comparison read.
type SessionFigures struct {
	// OnKS is the KS distance of SessionLayer.OnFit (Figure 11).
	OnKS float64

	// OffFit is the exponential fit on SessionLayer.OffTimes (Figure 12;
	// paper: mean = 203,150 s) with OffKS its KS distance.
	OffFit dist.Exponential
	OffKS  float64

	// IntraKS is the KS distance of SessionLayer.IntraFit (Figure 14).
	IntraKS float64

	// OnByHour is the mean session ON time by starting hour of day
	// (Figure 10); OnHourSlope/OnHourR2 quantify the (weak) correlation.
	OnByHour    [24]float64
	OnHourSlope float64
	OnHourR2    float64
}

// AnalyzeSessionLayer runs the Section 4 pipeline on a sessionized
// trace: SessionLayerFrom the set's Sessionizer.
//
//lsm:keep -- benchmark/layers/analyze.go probe; ROADMAP item 4 deletes
func AnalyzeSessionLayer(set *sessions.Set) (*SessionLayer, error) {
	if set.Count() == 0 {
		return nil, fmt.Errorf("%w: empty session set", ErrBadInput)
	}
	return SessionLayerFrom(set.Sessionizer())
}

// SessionLayerFrom runs the Section 4 pipeline on a Sessionizer fed a
// whole trace. The layer takes over the Sessionizer's OFF and
// intra-session samples: they become its fields, sorted.
func SessionLayerFrom(z *sessions.Sessionizer) (*SessionLayer, error) {
	if z.Sessions() == 0 {
		return nil, fmt.Errorf("%w: empty session set", ErrBadInput)
	}
	out := &SessionLayer{
		OnTimes:             make([]float64, 0, z.Sessions()),
		OffTimes:            z.OffTimes(),
		TransfersPerSession: make([]int, 0, z.Sessions()),
		IntraArrivals:       ToDisplay(z.IntraArrivals()),
	}
	for s := range z.Spans() {
		out.OnTimes = append(out.OnTimes, stats.LogDisplayValue(float64(s.On())))
		out.TransfersPerSession = append(out.TransfersPerSession, int(s.Count))
	}
	stats.SortInPlace(out.OffTimes)

	// Lognormal fit on display values (⌊t+1⌋): the log resolution floor
	// makes sub-second ON times display as 1 s. The fit sums in sample
	// order, so it runs before the sample is sorted for its readers.
	fit, err := dist.FitLognormal(out.OnTimes)
	if err != nil {
		return nil, fmt.Errorf("session ON fit: %w", err)
	}
	out.OnFit = fit
	stats.SortInPlace(out.OnTimes)

	if out.PerSessionFit, err = dist.FitZipfFrequencies(perSessionFrequencies(out.TransfersPerSession)); err != nil {
		return nil, fmt.Errorf("transfers-per-session fit: %w", err)
	}

	if len(out.IntraArrivals) >= 2 {
		intraFit, err := dist.FitLognormal(out.IntraArrivals)
		if err != nil {
			return nil, fmt.Errorf("intra-session fit: %w", err)
		}
		out.IntraFit = intraFit
		stats.SortInPlace(out.IntraArrivals)
	}
	return out, nil
}

// DescribeSessionLayer computes the figure-only part of the Section 4
// characterization from the sessions z holds and their layer: the KS
// distances of the body fits, the OFF-time fit, and Figure 10's ON time
// by starting hour.
func DescribeSessionLayer(z *sessions.Sessionizer, sl *SessionLayer) (*SessionFigures, error) {
	if z.Sessions() == 0 {
		return nil, fmt.Errorf("%w: empty session set", ErrBadInput)
	}
	out := &SessionFigures{}
	var err error
	if out.OnKS, err = dist.KolmogorovSmirnov(sl.OnTimes, sl.OnFit.CDF); err != nil {
		return nil, err
	}
	if len(sl.OffTimes) > 0 {
		if out.OffFit, err = dist.FitExponential(sl.OffTimes); err != nil {
			return nil, fmt.Errorf("session OFF fit: %w", err)
		}
		if out.OffKS, err = dist.KolmogorovSmirnov(sl.OffTimes, out.OffFit.CDF); err != nil {
			return nil, err
		}
	}
	if len(sl.IntraArrivals) >= 2 {
		if out.IntraKS, err = dist.KolmogorovSmirnov(sl.IntraArrivals, sl.IntraFit.CDF); err != nil {
			return nil, err
		}
	}
	out.computeOnByHour(z)
	return out, nil
}

// countFrequencies converts transfer-count observations into a frequency
// vector indexed by value: element k-1 is the fraction of sessions with
// exactly k transfers. This is the x-axis of Figure 13 (frequency versus
// number of transfers per session), which the paper fits to a Zipf law in
// the session count itself.
func countFrequencies(counts []int) []float64 {
	maxV := 0
	for _, c := range counts {
		if c > maxV {
			maxV = c
		}
	}
	freq := make([]float64, maxV)
	for _, c := range counts {
		if c >= 1 {
			freq[c-1]++
		}
	}
	total := float64(len(counts))
	for i := range freq {
		freq[i] /= total
	}
	return freq
}

// perSessionFrequencies prepares the Figure 13 frequency vector for the
// Zipf regression. Bins holding fewer than minObs observations are
// dropped: single-occurrence deep-tail bins flatten the log-log slope at
// small sample sizes (a pure estimation artifact that vanishes at the
// paper's 1.5M-session scale). If the filter leaves too few points the
// unfiltered vector is used.
func perSessionFrequencies(counts []int) []float64 {
	freq := countFrequencies(counts)
	const minObs = 5
	threshold := float64(minObs) / float64(len(counts))
	filtered := make([]float64, len(freq))
	kept := 0
	for i, f := range freq {
		if f >= threshold {
			filtered[i] = f
			kept++
		}
	}
	if kept < 3 {
		return freq
	}
	return filtered
}

// computeOnByHour evaluates mean ON time per session starting hour and
// the regression of ON time on hour (Figure 10's weak correlation).
func (sf *SessionFigures) computeOnByHour(z *sessions.Sessionizer) {
	var sums, counts [24]float64
	hours := make([]float64, 0, z.Sessions())
	ons := make([]float64, 0, z.Sessions())
	for s := range z.Spans() {
		h := int((s.Start % 86400) / 3600)
		if h < 0 {
			h = 0
		}
		on := float64(s.On())
		sums[h] += on
		counts[h]++
		hours = append(hours, float64(h))
		ons = append(ons, on)
	}
	for h := 0; h < 24; h++ {
		if counts[h] > 0 {
			sf.OnByHour[h] = sums[h] / counts[h]
		}
	}
	if slope, _, r2, err := dist.LinearRegression(hours, ons); err == nil {
		sf.OnHourSlope = slope
		sf.OnHourR2 = r2
	}
}

// OnMarginal returns the ECDF of session ON display values for plotting
// Figure 11's cumulative and CCDF panels.
func (sl *SessionLayer) OnMarginal() *stats.ECDF {
	return stats.NewECDF(sl.OnTimes)
}

// OffMarginal returns the ECDF of session OFF times (Figure 12).
func (sl *SessionLayer) OffMarginal() *stats.ECDF {
	return stats.NewECDF(sl.OffTimes)
}
