package dist

import (
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"testing"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a := NewSplitMix64(42)
	b := NewSplitMix64(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("draw %d diverged for equal seeds", i)
		}
	}
	a.Seed(42)
	c := NewSplitMix64(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != c.Uint64() {
			t.Fatalf("Seed did not reset the stream at draw %d", i)
		}
	}
}

func TestSplitMix64IsUsableSource(t *testing.T) {
	rng := rand.New(NewSplitMix64(7))
	n := 200_000
	var sum float64
	for i := 0; i < n; i++ {
		u := rng.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of range: %v", u)
		}
		sum += u
	}
	if mean := sum / float64(n); math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
	// Int63 must be non-negative (rand.Source contract).
	src := NewSplitMix64(9)
	for i := 0; i < 1000; i++ {
		if src.Int63() < 0 {
			t.Fatal("Int63 returned a negative value")
		}
	}
}

func TestMix64LanesDecorrelated(t *testing.T) {
	seen := make(map[uint64]uint64)
	for lane := uint64(0); lane < 10_000; lane++ {
		v := Mix64(2002, lane)
		if prev, dup := seen[v]; dup {
			t.Fatalf("lanes %d and %d collide", prev, lane)
		}
		seen[v] = lane
	}
	if Mix64(1, 0) == Mix64(2, 0) {
		t.Error("different seeds map to the same child seed")
	}
	if Mix64(3, 5) != Mix64(3, 5) {
		t.Error("Mix64 not deterministic")
	}
}

func TestPoissonStreamMatchesArrivals(t *testing.T) {
	pp, err := NewPiecewisePoisson(func(t float64) float64 {
		return 0.02 + 0.01*math.Sin(t/3600)
	}, 900)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 200_000
	ref := rand.New(rand.NewSource(11))
	batch := referenceArrivals(pp, ref.ExpFloat64, ref.Float64, horizon)
	st := pp.Stream(rand.New(rand.NewSource(11)), horizon)
	var streamed []float64
	for {
		v, ok := st.Next()
		if !ok {
			break
		}
		streamed = append(streamed, v)
	}
	if len(streamed) != len(batch) {
		t.Fatalf("stream emitted %d arrivals, batch %d", len(streamed), len(batch))
	}
	for i := range batch {
		if streamed[i] != batch[i] {
			t.Fatalf("arrival %d: stream %v vs batch %v", i, streamed[i], batch[i])
		}
	}
	if _, ok := st.Next(); ok {
		t.Error("exhausted stream produced another arrival")
	}
}

func TestPoissonStreamEmptyHorizon(t *testing.T) {
	pp, err := NewPiecewisePoisson(func(float64) float64 { return 1 }, 900)
	if err != nil {
		t.Fatal(err)
	}
	st := pp.Stream(rand.New(rand.NewSource(1)), 0)
	if _, ok := st.Next(); ok {
		t.Error("zero horizon produced an arrival")
	}
}

// referenceArrivals is the slice-returning Lewis–Shedler thinning that
// PoissonStream and EachArrivalV2 replaced, kept as their reference;
// exp and unif are a generator's ExpFloat64 and Float64.
func referenceArrivals(p *PiecewisePoisson, exp, unif func() float64, horizon float64) []float64 {
	var out []float64
	if horizon <= 0 {
		return out
	}
	rates := p.windowRates(horizon)
	var maxRate float64
	for _, r := range rates {
		if r > maxRate {
			maxRate = r
		}
	}
	if maxRate == 0 {
		return out
	}
	t := exp() / maxRate
	for t < horizon {
		k := int(t / p.window)
		if k >= len(rates) {
			k = len(rates) - 1
		}
		if unif()*maxRate < rates[k] {
			out = append(out, t)
		}
		t += exp() / maxRate
	}
	return out
}

// TestEachArrivalV2MatchesReference: the callback form emits the
// reference's instants bit for bit and leaves the generator where the
// reference does — over a modulated rate, one with silent windows, a
// partial last window and an empty horizon.
func TestEachArrivalV2MatchesReference(t *testing.T) {
	rates := map[string]RateFunc{
		"modulated": func(t float64) float64 { return 0.02 + 0.01*math.Sin(t/3600) },
		"silent windows": func(t float64) float64 {
			if int(t/900)%3 == 0 {
				return 0
			}
			return 0.05
		},
		"all silent": func(float64) float64 { return 0 },
	}
	for name, rate := range rates {
		pp, err := NewPiecewisePoisson(rate, 900)
		if err != nil {
			t.Fatal(err)
		}
		for _, horizon := range []float64{0, 1000, 86_400.5, 200_000} {
			ref := randv2.New(NewSplitMix64(Mix64(11, 7)))
			want := referenceArrivals(pp, ref.ExpFloat64, ref.Float64, horizon)
			rng := randv2.New(NewSplitMix64(Mix64(11, 7)))
			var got []float64
			pp.EachArrivalV2(rng, horizon, func(t float64) { got = append(got, t) })
			if len(got) != len(want) {
				t.Fatalf("%s over %v s: %d arrivals, reference %d", name, horizon, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s over %v s: arrival %d is %v, reference %v", name, horizon, i, got[i], want[i])
				}
			}
			if a, b := rng.Uint64(), ref.Uint64(); a != b {
				t.Errorf("%s over %v s: next draw %#x, reference %#x", name, horizon, a, b)
			}
		}
	}
}
