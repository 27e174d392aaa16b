package dist

import (
	"math"
	"math/rand"
	"testing"
)

func TestPoissonProcessArrivals(t *testing.T) {
	p, err := NewPoissonProcess(0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	arr := p.ArrivalsIn(rng, 100, 10100, nil)
	// Expect ~5000 arrivals; allow 4 sigma (~283).
	if n := float64(len(arr)); math.Abs(n-5000) > 300 {
		t.Errorf("arrivals = %v, want ~5000", n)
	}
	for i, a := range arr {
		if a < 100 || a >= 10100 {
			t.Fatalf("arrival %v outside [100, 10100)", a)
		}
		if i > 0 && a <= arr[i-1] {
			t.Fatal("arrivals not strictly increasing")
		}
	}
	if got := p.ArrivalsIn(rng, 5, 5, nil); len(got) != 0 {
		t.Errorf("empty span produced %d arrivals", len(got))
	}
	if _, err := NewPoissonProcess(0); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestPoissonProcessReusesBuffer(t *testing.T) {
	p, err := NewPoissonProcess(1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	buf := make([]float64, 0, 4096)
	out := p.ArrivalsIn(rng, 0, 1000, buf)
	if len(out) == 0 || &out[0] != &buf[:1][0] {
		t.Error("buffer not reused")
	}
}

// drain pulls every arrival out of s.
func drain(s *PoissonStream) []float64 {
	var out []float64
	for {
		t, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

func TestPiecewisePoissonModulation(t *testing.T) {
	// Rate 1/s in the first half, 0.1/s in the second half.
	const horizon = 40000.0
	rateFn := func(ts float64) float64 {
		if ts < horizon/2 {
			return 1
		}
		return 0.1
	}
	pp, err := NewPiecewisePoisson(rateFn, 900)
	if err != nil {
		t.Fatal(err)
	}
	arr := drain(pp.Stream(rand.New(rand.NewSource(12)), horizon))
	var first, second int
	for i, a := range arr {
		if a < 0 || a >= horizon {
			t.Fatalf("arrival %v outside horizon", a)
		}
		if i > 0 && a <= arr[i-1] {
			t.Fatal("arrivals not strictly increasing")
		}
		if a < horizon/2 {
			first++
		} else {
			second++
		}
	}
	if math.Abs(float64(first)-20000) > 600 {
		t.Errorf("first-half arrivals = %d, want ~20000", first)
	}
	if math.Abs(float64(second)-2000) > 250 {
		t.Errorf("second-half arrivals = %d, want ~2000", second)
	}
	want := 0.55 * horizon
	if got := pp.ExpectedCount(horizon); math.Abs(got-want)/want > 0.01 {
		t.Errorf("expected count = %v, want ~%v", got, want)
	}
}

func TestPiecewisePoissonZeroRateWindows(t *testing.T) {
	// Rate is zero after t = 1000: no arrivals may land there.
	rateFn := func(ts float64) float64 {
		if ts < 1000 {
			return 2
		}
		return 0
	}
	pp, err := NewPiecewisePoisson(rateFn, 100)
	if err != nil {
		t.Fatal(err)
	}
	arr := drain(pp.Stream(rand.New(rand.NewSource(13)), 5000))
	if len(arr) == 0 {
		t.Fatal("no arrivals in the active region")
	}
	for _, a := range arr {
		if a >= 1000 {
			t.Fatalf("arrival %v in a zero-rate window", a)
		}
	}
	all0 := func(float64) float64 { return 0 }
	pp0, err := NewPiecewisePoisson(all0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(pp0.Stream(rand.New(rand.NewSource(14)), 5000)); len(got) != 0 {
		t.Errorf("zero-rate process produced %d arrivals", len(got))
	}
	if got := pp0.ExpectedCount(5000); got != 0 {
		t.Errorf("zero-rate expected count = %v", got)
	}
}

func TestPiecewisePoissonPartialWindow(t *testing.T) {
	pp, err := NewPiecewisePoisson(func(float64) float64 { return 1 }, 900)
	if err != nil {
		t.Fatal(err)
	}
	// Horizon not a multiple of the window: the last partial window
	// contributes only its remainder.
	if got := pp.ExpectedCount(1000); math.Abs(got-1000) > 1e-9 {
		t.Errorf("expected count = %v, want 1000", got)
	}
	if got := pp.ExpectedCount(0); got != 0 {
		t.Errorf("expected count at 0 horizon = %v", got)
	}
}

func TestPiecewisePoissonDeterministicUnderSeed(t *testing.T) {
	rateFn := func(ts float64) float64 { return 0.3 + 0.2*math.Sin(ts/5000) }
	pp, err := NewPiecewisePoisson(rateFn, 900)
	if err != nil {
		t.Fatal(err)
	}
	a := drain(pp.Stream(rand.New(rand.NewSource(15)), 30000))
	b := drain(pp.Stream(rand.New(rand.NewSource(15)), 30000))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("arrival streams differ under equal seeds")
		}
	}
}

func TestPiecewisePoissonErrors(t *testing.T) {
	if _, err := NewPiecewisePoisson(nil, 900); err == nil {
		t.Error("nil rate function accepted")
	}
	if _, err := NewPiecewisePoisson(func(float64) float64 { return 1 }, 0); err == nil {
		t.Error("zero window accepted")
	}
}
