package dist

import randv2 "math/rand/v2"

// This file holds the math/rand/v2 entry points of the samplers, for
// consumers that key their draws to a splitmix seed lane: topology's
// placement and core's Poisson replica. The v1 entry points that
// remain (PiecewisePoisson.Stream, PoissonProcess.ArrivalsIn,
// Zipf.SampleRank, Lognormal.Sample and Pareto.Sample) are the
// generator's draws: gismo's live and stored streams consume them, so
// its output, and with it the paper-scale digest f1d985ae…, is keyed
// to math/rand v1 and moving them would change every log. vbr's ON/OFF
// periods (examples/selfsimilar) draw Pareto.Sample too. SplitMix64
// satisfies both source interfaces.

// DrawV2 returns an index distributed per the construction weights.
func (a *Alias) DrawV2(rng *randv2.Rand) int {
	i := rng.IntN(len(a.prob))
	if rng.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}

// EachArrivalV2 is PoissonStream's Lewis–Shedler thinning over a
// math/rand/v2 generator, draw for draw, handing each arrival instant
// to emit. It exists for consumers that key their randomness to a
// splitmix seed lane and keep only something derived from the instants
// (core's Figure 6 Poisson replica keeps the gaps between them).
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
