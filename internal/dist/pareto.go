package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// Pareto is the classic power-law distribution with scale Xm and tail
// index Alpha: P[X > x] = (Xm/x)^Alpha for x >= Xm. It drives the
// heavy-tailed ON/OFF periods of the self-similar VBR substrate
// (Crovella & Bestavros, reference [14] of the paper).
type Pareto struct {
	Xm    float64 // scale: smallest possible value
	Alpha float64 // tail index
}

// NewPareto validates the parameters.
func NewPareto(xm, alpha float64) (Pareto, error) {
	if xm <= 0 || math.IsNaN(xm) || math.IsInf(xm, 0) {
		return Pareto{}, fmt.Errorf("%w: pareto xm %v", ErrBadParam, xm)
	}
	if alpha <= 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return Pareto{}, fmt.Errorf("%w: pareto alpha %v", ErrBadParam, alpha)
	}
	return Pareto{Xm: xm, Alpha: alpha}, nil
}

// Sample draws one variate by inversion: Xm · U^(-1/Alpha).
func (p Pareto) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return p.Xm * math.Pow(u, -1/p.Alpha)
}

// CDF evaluates P[X <= x].
//
//lsm:keep -- sample_test.go checks the law's closed form
func (p Pareto) CDF(x float64) float64 {
	if x < p.Xm {
		return 0
	}
	return 1 - math.Pow(p.Xm/x, p.Alpha)
}

// Mean returns Alpha·Xm/(Alpha-1), or +Inf when Alpha <= 1.
//
//lsm:keep -- sample_test.go checks the law's closed form
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

// String renders the law.
func (p Pareto) String() string {
	return fmt.Sprintf("pareto(xm=%.3f, alpha=%.3f)", p.Xm, p.Alpha)
}
