package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// PoissonProcess is a homogeneous Poisson arrival process with a fixed
// rate (arrivals per second) — the stored-media request stream, whose
// access lacks the live feed's synchronizing schedule.
type PoissonProcess struct {
	Rate float64
}

// NewPoissonProcess validates the rate.
func NewPoissonProcess(rate float64) (*PoissonProcess, error) {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return nil, fmt.Errorf("%w: poisson rate %v", ErrBadParam, rate)
	}
	return &PoissonProcess{Rate: rate}, nil
}

// ArrivalsIn generates the arrival instants in [t0, t1) by exponential
// gaps, appending to buf (pass nil to allocate fresh).
func (p *PoissonProcess) ArrivalsIn(rng *rand.Rand, t0, t1 float64, buf []float64) []float64 {
	out := buf[:0]
	if t1 <= t0 {
		return out
	}
	t := t0 + rng.ExpFloat64()/p.Rate
	for t < t1 {
		out = append(out, t)
		t += rng.ExpFloat64() / p.Rate
	}
	return out
}

// PiecewisePoisson is the paper's Section 3.3 arrival model: a Poisson
// process that is stationary within windows of fixed width, with the
// window rate read off a time-varying rate function (the diurnal/weekly
// profile, Figure 4). The paper uses 15-minute windows.
type PiecewisePoisson struct {
	rate   RateFunc
	window float64
}

// NewPiecewisePoisson validates the rate function and window width.
func NewPiecewisePoisson(rateFn RateFunc, window float64) (*PiecewisePoisson, error) {
	if rateFn == nil {
		return nil, fmt.Errorf("%w: nil rate function", ErrBadParam)
	}
	if window <= 0 || math.IsNaN(window) || math.IsInf(window, 0) {
		return nil, fmt.Errorf("%w: poisson window %v", ErrBadParam, window)
	}
	return &PiecewisePoisson{rate: rateFn, window: window}, nil
}

// windowRates evaluates the per-window stationary rates over [0, horizon):
// the rate function sampled at each window's midpoint, clamped at 0.
func (p *PiecewisePoisson) windowRates(horizon float64) []float64 {
	n := int(math.Ceil(horizon / p.window))
	rates := make([]float64, n)
	for k := range rates {
		mid := (float64(k) + 0.5) * p.window
		if mid > horizon {
			mid = (float64(k)*p.window + horizon) / 2
		}
		if r := p.rate(mid); r > 0 && !math.IsNaN(r) && !math.IsInf(r, 0) {
			rates[k] = r
		}
	}
	return rates
}

// PoissonStream is a lazy arrival iterator over [0, horizon) by Lewis–
// Shedler thinning: candidates are drawn from a homogeneous process at
// the maximum window rate and accepted with probability
// λ(window)/λmax, pulled one arrival at a time so the consumer never
// materializes the arrival slice.
type PoissonStream struct {
	rates   []float64
	maxRate float64
	window  float64
	horizon float64
	rng     *rand.Rand
	t       float64
	primed  bool
}

// Stream returns a lazy arrival iterator over [0, horizon).
func (p *PiecewisePoisson) Stream(rng *rand.Rand, horizon float64) *PoissonStream {
	s := &PoissonStream{window: p.window, horizon: horizon, rng: rng}
	if horizon <= 0 {
		s.primed = true
		s.t = horizon
		return s
	}
	s.rates = p.windowRates(horizon)
	for _, r := range s.rates {
		if r > s.maxRate {
			s.maxRate = r
		}
	}
	return s
}

// Next returns the next arrival instant, or false when the horizon is
// exhausted. Arrivals are strictly increasing.
func (s *PoissonStream) Next() (float64, bool) {
	if s.maxRate == 0 {
		return 0, false
	}
	if !s.primed {
		s.t = s.rng.ExpFloat64() / s.maxRate
		s.primed = true
	}
	for s.t < s.horizon {
		t := s.t
		k := int(t / s.window)
		if k >= len(s.rates) {
			k = len(s.rates) - 1
		}
		accept := s.rng.Float64()*s.maxRate < s.rates[k]
		s.t += s.rng.ExpFloat64() / s.maxRate
		if accept {
			return t, true
		}
	}
	return 0, false
}

// ExpectedCount integrates the piecewise-constant rate over [0, horizon):
// the expected number of arrivals.
func (p *PiecewisePoisson) ExpectedCount(horizon float64) float64 {
	if horizon <= 0 {
		return 0
	}
	var sum float64
	for k, r := range p.windowRates(horizon) {
		span := p.window
		if rest := horizon - float64(k)*p.window; rest < span {
			span = rest
		}
		sum += r * span
	}
	return sum
}
