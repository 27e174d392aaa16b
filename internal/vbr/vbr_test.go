package vbr

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Sources: 0, Alpha: 1.4, MeanOn: 1, MeanOff: 1},
		{Sources: 4, Alpha: 1.0, MeanOn: 1, MeanOff: 1},
		{Sources: 4, Alpha: 2.0, MeanOn: 1, MeanOff: 1},
		{Sources: 4, Alpha: 1.4, MeanOn: 0, MeanOff: 1},
		{Sources: 4, Alpha: 1.4, MeanOn: 1, MeanOff: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d: want error", i)
		}
	}
}

func TestExpectedHurst(t *testing.T) {
	c := Config{Alpha: 1.4}
	if math.Abs(c.ExpectedHurst()-0.8) > 1e-12 {
		t.Errorf("H = %v, want 0.8", c.ExpectedHurst())
	}
}

func TestActiveSourcesStationaryMean(t *testing.T) {
	cfg := DefaultConfig()
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	series := g.ActiveSources(20000, rng)
	if len(series) != 20000 {
		t.Fatalf("len = %d", len(series))
	}
	// Stationary mean: Sources * MeanOn / (MeanOn + MeanOff) = 64/3.
	want := float64(cfg.Sources) * cfg.MeanOn / (cfg.MeanOn + cfg.MeanOff)
	got := stats.Mean(series)
	if math.Abs(got-want)/want > 0.25 {
		t.Errorf("mean active sources = %v, want ~%v", got, want)
	}
	for _, v := range series {
		if v < 0 || v > float64(cfg.Sources) {
			t.Fatalf("active count %v outside [0, %d]", v, cfg.Sources)
		}
	}
}

func TestAggregateIsSelfSimilar(t *testing.T) {
	// The headline property (Crovella & Bestavros, the paper's [14]):
	// heavy-tailed ON/OFF aggregation must yield H well above the 0.5 of
	// a memoryless process, approaching (3-alpha)/2.
	cfg := DefaultConfig()
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	series := g.ActiveSources(1<<16, rng)
	h, err := stats.VarianceTimeHurst(series, stats.PowersOfTwo(1024))
	if err != nil {
		t.Fatal(err)
	}
	if h < 0.65 {
		t.Errorf("aggregate H = %v, want clearly persistent (expected ~%v)", h, cfg.ExpectedHurst())
	}

	// The Poisson reference with the same mean must sit near 0.5.
	ref := cfg.PoissonReference(1<<16, rng)
	hRef, err := stats.VarianceTimeHurst(ref, stats.PowersOfTwo(1024))
	if err != nil {
		t.Fatal(err)
	}
	if hRef > 0.6 {
		t.Errorf("Poisson reference H = %v, want ~0.5", hRef)
	}
	if h <= hRef+0.1 {
		t.Errorf("aggregate H (%v) should clearly exceed reference H (%v)", h, hRef)
	}
}

func TestHeavierTailsRaiseHurst(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	estimate := func(alpha float64) float64 {
		cfg := DefaultConfig()
		cfg.Alpha = alpha
		g, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		series := g.ActiveSources(1<<15, rng)
		h, err := stats.VarianceTimeHurst(series, stats.PowersOfTwo(512))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	heavy := estimate(1.2)  // expected H = 0.9
	light := estimate(1.85) // expected H = 0.575
	if heavy <= light {
		t.Errorf("H(alpha=1.2)=%v should exceed H(alpha=1.85)=%v", heavy, light)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	gen := func() []float64 {
		g, err := NewGenerator(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return g.ActiveSources(2000, rand.New(rand.NewSource(99)))
	}
	a, b := gen(), gen()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic under fixed seed")
		}
	}
}

func TestNewGeneratorRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha = 3
	if _, err := NewGenerator(cfg); err == nil {
		t.Fatal("bad config accepted")
	}
}
