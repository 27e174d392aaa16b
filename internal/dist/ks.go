package dist

import (
	"fmt"

	"repro/internal/stats"
)

// KolmogorovSmirnov computes the one-sample KS distance between the
// empirical distribution of samples and a model CDF: the supremum of
// |F_n(x) - F(x)|. The paper reports this distance for every Table 2
// body fit.
func KolmogorovSmirnov(samples []float64, cdf func(float64) float64) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("%w: KS on empty sample", ErrBadFit)
	}
	if cdf == nil {
		return 0, fmt.Errorf("%w: KS with nil CDF", ErrBadFit)
	}
	sorted := stats.SortedCopy(samples)
	n := float64(len(sorted))
	var d float64
	for i, x := range sorted {
		f := cdf(x)
		// The empirical CDF jumps from i/n to (i+1)/n at x; the model can
		// deviate most on either side of the step.
		if below := f - float64(i)/n; below > d {
			d = below
		}
		if above := float64(i+1)/n - f; above > d {
			d = above
		}
	}
	return d, nil
}

// KolmogorovSmirnov2 computes the two-sample KS distance between the
// empirical distributions of a and b — the Figure 6 comparison between
// measured and synthesized interarrivals.
func KolmogorovSmirnov2(a, b []float64) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, fmt.Errorf("%w: two-sample KS on %d vs %d samples", ErrBadFit, len(a), len(b))
	}
	sa, sb := stats.SortedCopy(a), stats.SortedCopy(b)

	na, nb := float64(len(sa)), float64(len(sb))
	var i, j int
	var d float64
	for i < len(sa) && j < len(sb) {
		v := sa[i]
		if sb[j] < v {
			v = sb[j]
		}
		// Advance both ECDFs past every sample equal to v before
		// comparing, so ties contribute their full joint step.
		for i < len(sa) && sa[i] == v {
			i++
		}
		for j < len(sb) && sb[j] == v {
			j++
		}
		if diff := float64(i)/na - float64(j)/nb; diff > d {
			d = diff
		} else if -diff > d {
			d = -diff
		}
	}
	return d, nil
}
