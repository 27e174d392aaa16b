package dist

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/stats"
)

// referenceFitLognormal and referenceFitTail are the estimators as
// they were before samples were stored sorted and read in place — a
// slice of logarithms per lognormal fit, two copies per tail window —
// kept as the references the current bodies must match bit for bit.
func referenceFitLognormal(samples []float64) (Lognormal, error) {
	if len(samples) < 2 {
		return Lognormal{}, fmt.Errorf("%w: lognormal fit needs >= 2 samples, got %d", ErrBadFit, len(samples))
	}
	var sum float64
	logs := make([]float64, len(samples))
	for i, x := range samples {
		if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return Lognormal{}, fmt.Errorf("%w: lognormal fit sample %v", ErrBadFit, x)
		}
		logs[i] = math.Log(x)
		sum += logs[i]
	}
	mu := sum / float64(len(logs))
	var ss float64
	for _, lx := range logs {
		d := lx - mu
		ss += d * d
	}
	sigma := math.Sqrt(ss / float64(len(logs)-1))
	if sigma <= 0 {
		return Lognormal{}, fmt.Errorf("%w: degenerate lognormal sample (zero variance)", ErrBadFit)
	}
	return Lognormal{Mu: mu, Sigma: sigma}, nil
}

func referenceFitTail(samples []float64, lo, hi float64) (TailFit, error) {
	if !(lo < hi) || lo < 0 || math.IsNaN(lo) || math.IsNaN(hi) {
		return TailFit{}, fmt.Errorf("%w: tail window (%v, %v]", ErrBadFit, lo, hi)
	}
	sub := make([]float64, 0, len(samples))
	for _, x := range samples {
		if x > lo && x <= hi {
			sub = append(sub, x)
		}
	}
	if len(sub) < 3 {
		return TailFit{}, fmt.Errorf("%w: %d samples in tail window (%v, %v]", ErrBadFit, len(sub), lo, hi)
	}
	sub = stats.SortedCopy(sub)
	n := float64(len(sub))
	xs := make([]float64, 0, len(sub))
	ys := make([]float64, 0, len(sub))
	for i := 0; i < len(sub); {
		v := sub[i]
		j := i
		for j < len(sub) && sub[j] == v {
			j++
		}
		if ccdf := float64(len(sub)-j) / n; ccdf > 0 && v > 0 {
			xs = append(xs, math.Log(v))
			ys = append(ys, math.Log(ccdf))
		}
		i = j
	}
	if len(xs) < 3 {
		return TailFit{}, fmt.Errorf("%w: %d distinct values in tail window (%v, %v]", ErrBadFit, len(xs), lo, hi)
	}
	slope, intercept, r2, err := LinearRegression(xs, ys)
	if err != nil {
		return TailFit{}, err
	}
	return TailFit{Alpha: -slope, Intercept: intercept, R2: r2, Points: len(xs), Lo: lo, Hi: hi}, nil
}

// referenceKolmogorovSmirnov is the one-sample KS test as it was
// before it evaluated the CDF once per distinct value: one evaluation
// and two step comparisons per sample element.
func referenceKolmogorovSmirnov(samples []float64, cdf func(float64) float64) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("%w: KS on empty sample", ErrBadFit)
	}
	if cdf == nil {
		return 0, fmt.Errorf("%w: KS with nil CDF", ErrBadFit)
	}
	sorted := stats.SortedView(samples)
	n := float64(len(sorted))
	var d float64
	for i, x := range sorted {
		f := cdf(x)
		if below := f - float64(i)/n; below > d {
			d = below
		}
		if above := float64(i+1)/n - f; above > d {
			d = above
		}
	}
	return d, nil
}

// sameResult fails unless two estimator results agree: the same error
// text, or no error and the same float bits in every field.
func sameResult(t *testing.T, name string, got, want []float64, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: field %d is %v, reference %v", name, i, got[i], want[i])
		}
	}
}

// estimatorSamples are the differential tests' inputs: continuous and
// display-second draws at sizes around the radix cut-over, each as
// drawn and sorted, plus the degenerate samples the fits reject.
func estimatorSamples() map[string][]float64 {
	rng := rand.New(rand.NewSource(31))
	out := map[string][]float64{
		"empty":         nil,
		"one":           {5},
		"constant":      {7, 7, 7, 7},
		"with zero":     {3, 0, 9, 4},
		"with negative": {3, -1, 9, 4},
		"with NaN":      {3, math.NaN(), 9, 4},
		"with +Inf":     {3, math.Inf(1), 9, 400, 4, 250, 300},
		"signed zeros":  {0, math.Copysign(0, -1), 3, 0, math.Copysign(0, -1), 3},
	}
	for _, n := range []int{20, 700, 5000} {
		cont := make([]float64, n)
		disp := make([]float64, n)
		for i := range cont {
			cont[i] = math.Exp(4.4 + 1.4*rng.NormFloat64())
			disp[i] = stats.LogDisplayValue(cont[i])
		}
		out[fmt.Sprintf("lognormal n=%d", n)] = cont
		out[fmt.Sprintf("display n=%d", n)] = disp
	}
	for name, xs := range out {
		if len(xs) > 1 {
			out[name+" sorted"] = stats.SortedCopy(xs)
		}
	}
	return out
}

// TestFitsMatchReference: FitLognormal's two passes and FitTail's
// window read off the sorted sample give the references' results bit
// for bit — errors included — on samples as drawn and sorted, over
// windows that hold many, few and no values.
func TestFitsMatchReference(t *testing.T) {
	windows := [][2]float64{{2, 100}, {100, 1e6}, {0, math.Inf(1)}, {50, 51}, {1e7, 1e8}, {5, 5}, {-1, 3}, {math.NaN(), 3}}
	for name, xs := range estimatorSamples() {
		before := slices.Clone(xs)
		got, gotErr := FitLognormal(xs)
		want, wantErr := referenceFitLognormal(xs)
		sameResult(t, name+" lognormal", []float64{got.Mu, got.Sigma}, []float64{want.Mu, want.Sigma}, gotErr, wantErr)
		for _, w := range windows {
			got, gotErr := FitTail(xs, w[0], w[1])
			want, wantErr := referenceFitTail(xs, w[0], w[1])
			sameResult(t, fmt.Sprintf("%s tail %v", name, w),
				[]float64{got.Alpha, got.Intercept, got.R2, float64(got.Points), got.Lo, got.Hi},
				[]float64{want.Alpha, want.Intercept, want.R2, float64(want.Points), want.Lo, want.Hi}, gotErr, wantErr)
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(before[i]) {
				t.Fatalf("%s: an estimator modified sample element %d", name, i)
			}
		}
	}
}

// TestKolmogorovSmirnovMatchesReference: the one-sample KS test over
// distinct values gives the per-element reference's D bit for bit — on
// tie-heavy display-second samples, tie-free continuous ones and the
// degenerate ones, as drawn and sorted, under CDFs that are smooth,
// flat, and that tell −0 from +0 — and evaluates the CDF once per run
// of equal values.
func TestKolmogorovSmirnovMatchesReference(t *testing.T) {
	cdfs := map[string]func(float64) float64{
		"lognormal": Lognormal{Mu: 4.4, Sigma: 1.4}.CDF,
		"uniform":   func(x float64) float64 { return math.Min(math.Max(x/1000, 0), 1) },
		"signed": func(x float64) float64 {
			if math.Signbit(x) {
				return 0.75
			}
			return 0.25
		},
	}
	for name, xs := range estimatorSamples() {
		for cname, cdf := range cdfs {
			calls := 0
			counted := func(x float64) float64 { calls++; return cdf(x) }
			got, gotErr := KolmogorovSmirnov(xs, counted)
			want, wantErr := referenceKolmogorovSmirnov(xs, cdf)
			sameResult(t, name+" KS "+cname, []float64{got}, []float64{want}, gotErr, wantErr)
			runs := 0
			sorted := stats.SortedCopy(xs)
			for i := range sorted {
				if i == 0 || math.Float64bits(sorted[i]) != math.Float64bits(sorted[i-1]) {
					runs++
				}
			}
			if calls != runs {
				t.Errorf("%s KS %s: %d CDF calls, want one per run of equal values (%d)", name, cname, calls, runs)
			}
		}
	}
}

// TestSortedConsumersLeaveInputAlone: every reader of a stored sample —
// the one- and two-sample KS tests, the ECDF, the quantile and summary
// statistics and the tail fit — takes a sample in sorted form in place:
// it leaves the sample bit-identical and allocates nothing, except the
// ECDF, which allocates its runs, and the tail fit, which allocates its
// regression points — one per distinct value in the window, not per
// sample. Handed the same sample unsorted, each still leaves it alone
// and reads a copy.
func TestSortedConsumersLeaveInputAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	draw := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = stats.LogDisplayValue(math.Exp(4.4 + 1.4*rng.NormFloat64()))
		}
		return xs
	}
	fit := Lognormal{Mu: 4.4, Sigma: 1.4}
	other := stats.SortedCopy(draw(3000))
	var sink float64
	consumers := []struct {
		name      string
		maxAllocs float64
		read      func(xs []float64)
	}{
		{"KolmogorovSmirnov", 0, func(xs []float64) { sink, _ = KolmogorovSmirnov(xs, fit.CDF) }},
		{"KolmogorovSmirnov2", 0, func(xs []float64) { sink, _ = KolmogorovSmirnov2(xs, other) }},
		{"KolmogorovSmirnov2 swapped", 0, func(xs []float64) { sink, _ = KolmogorovSmirnov2(other, xs) }},
		{"NewECDF", 3, func(xs []float64) { sink = stats.NewECDF(xs).Quantile(0.5) }},
		{"Quantile", 0, func(xs []float64) { sink, _ = stats.Quantile(xs, 0.9) }},
		{"Summarize", 0, func(xs []float64) {
			s, _ := stats.Summarize(xs)
			sink = s.P99
		}},
		{"FitTail", 2, func(xs []float64) {
			f, _ := FitTail(xs, 2, 100)
			sink = f.Alpha
		}},
	}
	unsorted := draw(5000)
	sorted := stats.SortedCopy(unsorted)
	for _, c := range consumers {
		for _, xs := range [][]float64{sorted, unsorted} {
			before := slices.Clone(xs)
			c.read(xs)
			for i := range xs {
				if math.Float64bits(xs[i]) != math.Float64bits(before[i]) {
					t.Fatalf("%s modified sample element %d", c.name, i)
				}
			}
		}
		if got := testing.AllocsPerRun(5, func() { c.read(sorted) }); got > c.maxAllocs {
			t.Errorf("%s on a sorted sample: %v allocations, want at most %v", c.name, got, c.maxAllocs)
		}
	}
	_ = sink
}
