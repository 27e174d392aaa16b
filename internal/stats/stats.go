// Package stats provides the descriptive-statistics substrate for the
// hierarchical workload characterization: summary statistics, linear and
// logarithmic histograms, empirical (complementary) cumulative
// distributions, rank–frequency profiles, autocorrelation functions, and
// time-series binning with modulo folding (mod-day, mod-week) — the exact
// toolkit behind Figures 2–20 of Veloso et al. (IMC 2002).
package stats

import (
	"errors"
	"math"
)

// ErrEmpty reports an operation on an empty data set.
var ErrEmpty = errors.New("stats: empty data")

// ErrBadArgument reports an out-of-domain argument.
var ErrBadArgument = errors.New("stats: bad argument")

// Summary holds the moments and order statistics of a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // population variance
	Stddev   float64
	Min      float64
	Max      float64
	Median   float64
	P90      float64
	P99      float64
}

// Summarize computes a Summary of xs, reading a sample in sorted form
// in place (SortedView). The moments are summed in ascending order
// whatever the order of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	sorted := SortedView(xs)

	var sum, sumSq float64
	for _, x := range sorted {
		sum += x
		sumSq += x * x
	}
	n := float64(len(sorted))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0 // guard against floating-point cancellation
	}
	return Summary{
		N:        len(sorted),
		Mean:     mean,
		Variance: variance,
		Stddev:   math.Sqrt(variance),
		Min:      sorted[0],
		Max:      sorted[len(sorted)-1],
		Median:   quantileSorted(sorted, 0.5),
		P90:      quantileSorted(sorted, 0.9),
		P99:      quantileSorted(sorted, 0.99),
	}, nil
}

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quantile returns the p-quantile of xs using linear interpolation between
// order statistics. p must be in [0, 1]. A sample in sorted form is read
// in place (SortedView).
//
//lsm:keep -- test oracle: the stats, dist and analyze oracle tests hold the streaming quantiles to it
func Quantile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return 0, ErrBadArgument
	}
	return quantileSorted(SortedView(xs), p), nil
}

func quantileSorted(sorted []float64, p float64) float64 {
	return quantileAt(len(sorted), func(i int) float64 { return sorted[i] }, p)
}

// quantileAt interpolates the p-quantile of an n-sample between the
// order statistics at(i), 0 <= i < n.
func quantileAt(n int, at func(int) float64, p float64) float64 {
	if n == 1 {
		return at(0)
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return at(lo)
	}
	frac := pos - float64(lo)
	return at(lo)*(1-frac) + at(hi)*frac
}

// LogDisplayValue maps a time measurement t (seconds) to ⌊t⌋+1, the
// paper's convention for displaying coarse 1-second-resolution timing data
// on logarithmic axes (Section 2.3: "we have opted to use the function
// ⌊t+1⌋ to represent a time measurement of t seconds").
func LogDisplayValue(t float64) float64 {
	if t < 0 {
		return 1
	}
	return math.Floor(t) + 1
}
