// Package vbr synthesizes variable-bit-rate content traffic.
//
// GISMO (the workload generator the paper extends) models streaming
// object content with "self-similar variable bit-rate" encoding, a
// feature the paper notes is "still applicable to the synthesis of live
// media workloads" (Section 6.2). This package provides that substrate
// using the generative mechanism of Crovella & Bestavros (reference [14]
// in the paper, discussed in Section 5.3): aggregating many ON/OFF
// sources whose ON and OFF periods are heavy-tailed (Pareto) produces a
// long-range-dependent (self-similar) aggregate with Hurst parameter
// H = (3 - alpha) / 2.
//
// A Generator emits a per-second bit-rate series for one live stream:
// the mean encoding rate modulated by the normalized ON/OFF aggregate —
// scene activity (many "active" sub-sources: motion, audio bursts,
// camera switches) maps naturally onto the ON/OFF abstraction.
package vbr

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dist"
)

// ErrBadConfig reports invalid generator parameters.
var ErrBadConfig = errors.New("vbr: bad config")

// Config parameterizes the ON/OFF aggregate.
type Config struct {
	// Sources is the number of independent ON/OFF sub-sources.
	Sources int
	// Alpha is the Pareto tail index of ON and OFF period lengths in
	// (1, 2): heavier tails (smaller alpha) give stronger long-range
	// dependence, H = (3 - alpha) / 2.
	Alpha float64
	// MeanOn and MeanOff are the mean ON and OFF period lengths in
	// seconds (the Pareto scale is derived from them).
	MeanOn, MeanOff float64
}

// DefaultConfig returns a generator calibrated for H ≈ 0.8 (alpha = 1.4),
// the degree of self-similarity commonly reported for compressed video.
func DefaultConfig() Config {
	return Config{
		Sources: 64,
		Alpha:   1.4,
		MeanOn:  5,
		MeanOff: 10,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Sources < 1 {
		return fmt.Errorf("%w: %d sources", ErrBadConfig, c.Sources)
	}
	if c.Alpha <= 1 || c.Alpha >= 2 {
		return fmt.Errorf("%w: alpha %v outside (1, 2)", ErrBadConfig, c.Alpha)
	}
	if c.MeanOn <= 0 || c.MeanOff <= 0 {
		return fmt.Errorf("%w: mean ON %v / OFF %v", ErrBadConfig, c.MeanOn, c.MeanOff)
	}
	return nil
}

// ExpectedHurst returns the asymptotic Hurst parameter of the aggregate,
// H = (3 - alpha) / 2.
func (c *Config) ExpectedHurst() float64 {
	return (3 - c.Alpha) / 2
}

// Generator produces self-similar activity series.
type Generator struct {
	cfg     Config
	on, off dist.Pareto
}

// NewGenerator validates the config and derives the Pareto period laws:
// a Pareto with tail index alpha and scale xm has mean alpha*xm/(alpha-1),
// so xm = mean * (alpha-1) / alpha.
func NewGenerator(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	on, err := dist.NewPareto(cfg.MeanOn*(cfg.Alpha-1)/cfg.Alpha, cfg.Alpha)
	if err != nil {
		return nil, err
	}
	off, err := dist.NewPareto(cfg.MeanOff*(cfg.Alpha-1)/cfg.Alpha, cfg.Alpha)
	if err != nil {
		return nil, err
	}
	return &Generator{cfg: cfg, on: on, off: off}, nil
}

// ActiveSources generates the per-second count of active (ON) sources
// over n seconds: the raw self-similar aggregate.
func (g *Generator) ActiveSources(n int, rng *rand.Rand) []float64 {
	if n <= 0 {
		return nil
	}
	agg := make([]float64, n)
	for s := 0; s < g.cfg.Sources; s++ {
		g.addSource(agg, rng)
	}
	return agg
}

// addSource overlays one ON/OFF source onto the aggregate. Each source
// starts at a random phase (ON or OFF with stationary probability) so the
// aggregate is stationary from t = 0.
func (g *Generator) addSource(agg []float64, rng *rand.Rand) {
	n := len(agg)
	pOn := g.cfg.MeanOn / (g.cfg.MeanOn + g.cfg.MeanOff)
	on := rng.Float64() < pOn
	t := 0.0
	// Burn a partial first period for phase randomization.
	var period float64
	if on {
		period = g.on.Sample(rng) * rng.Float64()
	} else {
		period = g.off.Sample(rng) * rng.Float64()
	}
	for t < float64(n) {
		if on {
			// Mark the seconds in [floor(t), floor(t+period)): with random
			// phases the floor truncation is unbiased on average.
			lo := int(t)
			hi := int(t + period)
			if hi > n {
				hi = n
			}
			for s := lo; s < hi; s++ {
				agg[s]++
			}
		}
		t += period
		on = !on
		if on {
			period = g.on.Sample(rng)
		} else {
			period = g.off.Sample(rng)
		}
	}
}

// PoissonReference generates a memoryless (short-range-dependent)
// reference series with the same mean as an aggregate of the config's
// sources: each second's value is an independent Poisson-like draw. It
// is the H ≈ 0.5 baseline the self-similarity benchmarks contrast
// against.
func (c *Config) PoissonReference(n int, rng *rand.Rand) []float64 {
	mean := float64(c.Sources) * c.MeanOn / (c.MeanOn + c.MeanOff)
	out := make([]float64, n)
	for i := range out {
		// Normal approximation to Poisson(mean), adequate for mean >> 1.
		v := mean + math.Sqrt(mean)*rng.NormFloat64()
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
	return out
}
