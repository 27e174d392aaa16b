package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sortedECDF is the ECDF this package shipped before the run-length
// form, kept verbatim as the reference: the whole sample, sorted.
type sortedECDF struct {
	sorted []float64
}

func newSortedECDF(xs []float64) *sortedECDF {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return &sortedECDF{sorted: sorted}
}

func (e *sortedECDF) N() int { return len(e.sorted) }

func (e *sortedECDF) CDF(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, x)
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

func (e *sortedECDF) CCDF(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, x)
	return float64(len(e.sorted)-i) / float64(len(e.sorted))
}

func (e *sortedECDF) Quantile(p float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return e.sorted[0]
	}
	if p >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	return quantileSorted(e.sorted, p)
}

func (e *sortedECDF) Values() []float64 { return e.sorted }

func (e *sortedECDF) CDFPoints() []Point {
	out := make([]Point, 0, 64)
	for i := 0; i < len(e.sorted); i++ {
		if i+1 < len(e.sorted) && e.sorted[i+1] == e.sorted[i] {
			continue
		}
		out = append(out, Point{X: e.sorted[i], Y: float64(i+1) / float64(len(e.sorted))})
	}
	return out
}

func (e *sortedECDF) CCDFPoints() []Point {
	n := float64(len(e.sorted))
	out := make([]Point, 0, 64)
	for i := 0; i < len(e.sorted); i++ {
		if i > 0 && e.sorted[i] == e.sorted[i-1] {
			continue
		}
		out = append(out, Point{X: e.sorted[i], Y: (n - float64(i)) / n})
	}
	return out
}

// sameBits reports whether two float64 slices agree bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func samePoints(a, b []Point) bool {
	return slices.EqualFunc(a, b, func(p, q Point) bool {
		return math.Float64bits(p.X) == math.Float64bits(q.X) && math.Float64bits(p.Y) == math.Float64bits(q.Y)
	})
}

// checkECDF compares every accessor of got with the sorted-slice
// reference over the same sample, bit for bit.
func checkECDF(t *testing.T, label string, got *ECDF, sample []float64, rng *rand.Rand) {
	t.Helper()
	want := newSortedECDF(sample)
	if got.N() != want.N() {
		t.Fatalf("%s: N = %d, want %d", label, got.N(), want.N())
	}
	if !sameBits(got.Values(), want.Values()) {
		t.Fatalf("%s: Values differ", label)
	}
	if !samePoints(got.CDFPoints(), want.CDFPoints()) {
		t.Fatalf("%s: CDFPoints differ:\n got %v\nwant %v", label, got.CDFPoints(), want.CDFPoints())
	}
	if !samePoints(got.CCDFPoints(), want.CCDFPoints()) {
		t.Fatalf("%s: CCDFPoints differ:\n got %v\nwant %v", label, got.CCDFPoints(), want.CCDFPoints())
	}
	// Probe at, just beside and between the sample values, and outside
	// their range.
	probes := []float64{-1, -0.5, 1e9, math.Inf(1), math.Inf(-1)}
	for _, x := range sample {
		probes = append(probes, x, x-0.5, x+0.5, math.Nextafter(x, math.Inf(1)))
	}
	for _, x := range probes {
		if g, w := got.CDF(x), want.CDF(x); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: CDF(%v) = %v, want %v", label, x, g, w)
		}
		if g, w := got.CCDF(x), want.CCDF(x); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: CCDF(%v) = %v, want %v", label, x, g, w)
		}
	}
	ps := []float64{-0.1, 0, 0.25, 0.5, 0.9, 0.99, 1, 1.5}
	for i := 0; i < 20; i++ {
		ps = append(ps, rng.Float64())
	}
	for _, p := range ps {
		if g, w := got.Quantile(p), want.Quantile(p); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: Quantile(%v) = %v, want %v", label, p, g, w)
		}
	}
}

func TestECDFCountsMatchesSortedSample(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for round := 0; round < 200; round++ {
		// A small-integer sample, the shape of a per-second c(t) series:
		// a few values carry most of the mass, some never occur.
		peak := rng.Intn(40)
		counts := make([]int, peak+1)
		var sample []float64
		for i, n := 0, rng.Intn(500); i < n; i++ {
			v := rng.Intn(peak + 1)
			if rng.Intn(2) == 0 {
				v = v / 7 * 7 // pile up on a few values, leave holes
			}
			counts[v]++
			sample = append(sample, float64(v))
		}
		checkECDF(t, "counts", NewECDFCounts(counts), sample, rng)
	}
}

func TestNewECDFMatchesSortedSample(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for round := 0; round < 200; round++ {
		sample := make([]float64, rng.Intn(300))
		for i := range sample {
			if round%2 == 0 {
				sample[i] = float64(rng.Intn(25)) // heavy ties
			} else {
				sample[i] = rng.NormFloat64() * 100 // all distinct
			}
		}
		checkECDF(t, "sample", NewECDF(sample), sample, rng)
	}
}

func TestNewECDFCountsRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative count: want panic")
		}
	}()
	NewECDFCounts([]int{1, -1})
}

// The ACF is Figure 8's data and reaches the .dat files: out[l] must be
// exactly what the single-lag estimator returns, at every lag, whatever
// the series length is modulo the four-lag pass.
func TestAutocorrelationFunctionMatchesPerLagBits(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for round := 0; round < 60; round++ {
		series := make([]float64, 2+rng.Intn(200))
		for i := range series {
			// Bin means of small integers over a diurnal swing, like the
			// minute-binned c(t): values that do not sum exactly.
			series[i] = math.Round(50+40*math.Sin(float64(i)/9)+rng.Float64()*10) / 60
		}
		for _, maxLag := range []int{0, 1, 2, 3, 4, 5, len(series) / 2, len(series) - 1} {
			if maxLag >= len(series) {
				continue
			}
			got, err := AutocorrelationFunction(series, maxLag)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != maxLag+1 {
				t.Fatalf("len = %d, want %d", len(got), maxLag+1)
			}
			for l, g := range got {
				w, err := Autocorrelation(series, l)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("n=%d maxLag=%d lag %d: %v (%#x), per-lag estimator %v (%#x)",
						len(series), maxLag, l, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
	}
	if _, err := AutocorrelationFunction([]float64{3, 3, 3}, 1); err == nil {
		t.Error("constant series: want error")
	}
}
