package dist

import (
	"fmt"
	"math"
)

// Exponential is the one-parameter exponential law, parameterized by its
// mean — the paper's fit for session OFF times (Figure 12; mean
// 203,150 s).
type Exponential struct {
	// MeanValue is the distribution mean 1/λ in the sample's units.
	MeanValue float64
}

// CDF evaluates P[X <= x].
func (e Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - math.Exp(-x/e.MeanValue)
}

// String renders the fit.
func (e Exponential) String() string {
	return fmt.Sprintf("exponential(mean=%.1f)", e.MeanValue)
}

// FitExponential estimates the mean by maximum likelihood (the sample
// mean). Samples must be non-negative with a positive mean.
func FitExponential(samples []float64) (Exponential, error) {
	if len(samples) == 0 {
		return Exponential{}, fmt.Errorf("%w: exponential fit on empty sample", ErrBadFit)
	}
	var sum float64
	for _, x := range samples {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return Exponential{}, fmt.Errorf("%w: exponential fit sample %v", ErrBadFit, x)
		}
		sum += x
	}
	mean := sum / float64(len(samples))
	if mean <= 0 {
		return Exponential{}, fmt.Errorf("%w: exponential fit mean %v", ErrBadFit, mean)
	}
	return Exponential{MeanValue: mean}, nil
}
