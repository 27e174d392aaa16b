package dist

import (
	"math"
	randv2 "math/rand/v2"
)

// This file holds the math/rand/v2 entry points of the samplers. The
// repo is migrating generator-side draws off legacy math/rand one
// consumer at a time (simulate moved in PR 4; topology and the
// flash-crowd scenario move in this PR); the legacy methods stay until
// the last consumer (gismo's session machinery, vbr) crosses over.
// SplitMix64 satisfies both source interfaces, so a migrated consumer
// keeps its seed-lane derivation and changes only the stream drawn
// from it.

// DrawV2 is Draw for a math/rand/v2 generator.
func (a *Alias) DrawV2(rng *randv2.Rand) int {
	i := rng.IntN(len(a.prob))
	if rng.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}

// SampleV2 is Sample for a math/rand/v2 generator.
func (l Lognormal) SampleV2(rng *randv2.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*rng.NormFloat64())
}

// EachArrivalV2 is Arrivals for a math/rand/v2 generator, handing each
// arrival instant to emit instead of appending it to a slice: the same
// Lewis–Shedler thinning, draw for draw, over a v2 source. It exists
// for consumers that key their randomness to a splitmix seed lane and
// keep only something derived from the instants (core's Figure 6
// Poisson replica keeps the gaps between them).
func (p *PiecewisePoisson) EachArrivalV2(rng *randv2.Rand, horizon float64, emit func(t float64)) {
	if horizon <= 0 {
		return
	}
	rates := p.windowRates(horizon)
	var maxRate float64
	for _, r := range rates {
		if r > maxRate {
			maxRate = r
		}
	}
	if maxRate == 0 {
		return
	}
	t := rng.ExpFloat64() / maxRate
	for t < horizon {
		k := int(t / p.window)
		if k >= len(rates) {
			k = len(rates) - 1
		}
		if rng.Float64()*maxRate < rates[k] {
			emit(t)
		}
		t += rng.ExpFloat64() / maxRate
	}
}
