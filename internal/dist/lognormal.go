package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// Lognormal is the two-parameter lognormal law: ln X ~ N(Mu, Sigma²).
// It is the paper's body fit for session ON times (Figure 11),
// intra-session gaps (Figure 14), and transfer lengths (Figure 19).
type Lognormal struct {
	Mu    float64
	Sigma float64
}

// NewLognormal validates the parameters.
func NewLognormal(mu, sigma float64) (Lognormal, error) {
	if math.IsNaN(mu) || math.IsInf(mu, 0) {
		return Lognormal{}, fmt.Errorf("%w: lognormal mu %v", ErrBadParam, mu)
	}
	if sigma <= 0 || math.IsNaN(sigma) || math.IsInf(sigma, 0) {
		return Lognormal{}, fmt.Errorf("%w: lognormal sigma %v", ErrBadParam, sigma)
	}
	return Lognormal{Mu: mu, Sigma: sigma}, nil
}

// Sample draws one variate: exp(Mu + Sigma·Z).
func (l Lognormal) Sample(rng *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*rng.NormFloat64())
}

// CDF evaluates P[X <= x].
func (l Lognormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := (math.Log(x) - l.Mu) / (l.Sigma * math.Sqrt2)
	return 0.5 * math.Erfc(-z)
}

// Median returns exp(Mu).
func (l Lognormal) Median() float64 { return math.Exp(l.Mu) }

// Mean returns exp(Mu + Sigma²/2).
func (l Lognormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) } //lsm:keep -- sample_test.go checks the law's closed form

// String renders the fit the way the paper's Table 2 states it.
func (l Lognormal) String() string {
	return fmt.Sprintf("lognormal(mu=%.4f, sigma=%.4f)", l.Mu, l.Sigma)
}

// FitLognormal estimates (Mu, Sigma) by maximum likelihood: the mean and
// standard deviation of the log-samples. All samples must be positive.
// Both sums run in sample order, so the fit depends on the order of
// samples in its last bits: a producer fits a sample before sorting it.
// The second pass recomputes each logarithm rather than keeping a
// sample-sized slice of them.
func FitLognormal(samples []float64) (Lognormal, error) {
	if len(samples) < 2 {
		return Lognormal{}, fmt.Errorf("%w: lognormal fit needs >= 2 samples, got %d", ErrBadFit, len(samples))
	}
	var sum float64
	for _, x := range samples {
		if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return Lognormal{}, fmt.Errorf("%w: lognormal fit sample %v", ErrBadFit, x)
		}
		sum += math.Log(x)
	}
	mu := sum / float64(len(samples))
	var ss float64
	for _, x := range samples {
		d := math.Log(x) - mu
		ss += d * d
	}
	sigma := math.Sqrt(ss / float64(len(samples)-1))
	if sigma <= 0 {
		return Lognormal{}, fmt.Errorf("%w: degenerate lognormal sample (zero variance)", ErrBadFit)
	}
	return Lognormal{Mu: mu, Sigma: sigma}, nil
}
