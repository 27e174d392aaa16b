package dist

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// LinearRegression fits y = slope·x + intercept by ordinary least
// squares and returns the coefficient of determination R².
func LinearRegression(xs, ys []float64) (slope, intercept, r2 float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, 0, fmt.Errorf("%w: regression over %d xs vs %d ys", ErrBadFit, len(xs), len(ys))
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("%w: regression needs >= 2 points, got %d", ErrBadFit, len(xs))
	}
	var sx, sy float64
	for i := range xs {
		if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) || math.IsNaN(ys[i]) || math.IsInf(ys[i], 0) {
			return 0, 0, 0, fmt.Errorf("%w: regression point (%v, %v)", ErrBadFit, xs[i], ys[i])
		}
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, 0, 0, fmt.Errorf("%w: regression with zero x variance", ErrBadFit)
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	if syy == 0 {
		// A perfectly flat line is fit exactly.
		return slope, intercept, 1, nil
	}
	r2 = sxy * sxy / (sxx * syy)
	return slope, intercept, r2, nil
}

// ZipfFit is an estimated Zipf law: the magnitude of the log-log
// rank/frequency slope, with the regression diagnostics.
type ZipfFit struct {
	Alpha     float64 // power-law exponent (positive)
	Intercept float64 // log-log intercept
	R2        float64 // regression R²
	Points    int     // rank points entering the regression
}

// String renders the fit the way the paper annotates its figures.
func (f ZipfFit) String() string {
	return fmt.Sprintf("zipf fit(alpha=%.4f, r2=%.3f, points=%d)", f.Alpha, f.R2, f.Points)
}

// FitZipfCounts estimates the Zipf exponent from raw per-entity access
// counts (per-client transfers, per-object requests, per-AS placements):
// positive counts are ranked in descending order and log(count) is
// regressed on log(rank) — GISMO's least-squares rank-plot technique.
func FitZipfCounts(counts []int) (ZipfFit, error) {
	pos := make([]float64, 0, len(counts))
	for _, c := range counts {
		if c > 0 {
			pos = append(pos, float64(c))
		}
	}
	if len(pos) < 2 {
		return ZipfFit{}, fmt.Errorf("%w: zipf fit needs >= 2 positive counts, got %d", ErrBadFit, len(pos))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(pos)))
	xs := make([]float64, len(pos))
	ys := make([]float64, len(pos))
	for i, c := range pos {
		xs[i] = math.Log(float64(i + 1))
		ys[i] = math.Log(c)
	}
	slope, intercept, r2, err := LinearRegression(xs, ys)
	if err != nil {
		return ZipfFit{}, err
	}
	return ZipfFit{Alpha: -slope, Intercept: intercept, R2: r2, Points: len(pos)}, nil
}

// FitZipfMLE estimates the exponent of a finite-support Zipf pmf
// P(k) ∝ k^(-alpha), k ∈ [1, n], by maximum likelihood over observed
// values. Unlike the rank-plot regression (FitZipfCounts), which
// weights every rank equally and so lets the sparse tail drag the
// slope, the MLE matches the body of the distribution — the estimator
// of choice when the fitted law feeds a generator whose output must
// pass a distributional (KS) comparison against the sample. Solved by
// bisection on the monotone score equation; the estimate is clamped to
// [0.05, 20].
func FitZipfMLE(values []int, n int) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("%w: zipf MLE support %d", ErrBadFit, n)
	}
	var meanLog float64
	var count int
	for _, v := range values {
		if v < 1 || v > n {
			continue
		}
		meanLog += math.Log(float64(v))
		count++
	}
	if count < 2 {
		return 0, fmt.Errorf("%w: zipf MLE needs >= 2 in-support values, got %d", ErrBadFit, count)
	}
	meanLog /= float64(count)

	// score(alpha) = E_alpha[log K] - meanLog, strictly decreasing in
	// alpha; its root is the MLE.
	score := func(alpha float64) float64 {
		var h, hl float64
		for k := 1; k <= n; k++ {
			w := math.Pow(float64(k), -alpha)
			h += w
			hl += math.Log(float64(k)) * w
		}
		return hl/h - meanLog
	}
	lo, hi := 0.05, 20.0
	if score(lo) <= 0 {
		return lo, nil // sample flatter than the support allows
	}
	if score(hi) >= 0 {
		return hi, nil // essentially all mass at k = 1
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if score(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// FitZipfFrequencies estimates the Zipf exponent from a frequency vector
// indexed by value: freq[k-1] is the relative frequency of value k
// (Figure 13's frequency-versus-transfers-per-session axis, or a
// rank-share vector). Zero bins are skipped.
func FitZipfFrequencies(freq []float64) (ZipfFit, error) {
	xs := make([]float64, 0, len(freq))
	ys := make([]float64, 0, len(freq))
	for i, f := range freq {
		if f <= 0 {
			continue
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return ZipfFit{}, fmt.Errorf("%w: zipf frequency[%d] = %v", ErrBadFit, i, f)
		}
		xs = append(xs, math.Log(float64(i+1)))
		ys = append(ys, math.Log(f))
	}
	if len(xs) < 2 {
		return ZipfFit{}, fmt.Errorf("%w: zipf fit needs >= 2 positive frequencies, got %d", ErrBadFit, len(xs))
	}
	slope, intercept, r2, err := LinearRegression(xs, ys)
	if err != nil {
		return ZipfFit{}, err
	}
	return ZipfFit{Alpha: -slope, Intercept: intercept, R2: r2, Points: len(xs)}, nil
}

// TailFit is an estimated power-law tail over a value window: the slope
// magnitude of the log-log complementary CDF (Figure 17's two-regime
// interarrival tails). The zero value marks "not estimable".
type TailFit struct {
	Alpha     float64 // tail index (positive)
	Intercept float64 // log-log intercept
	R2        float64 // regression R²
	Points    int     // distinct sample values entering the regression
	Lo, Hi    float64 // fitted window (lo, hi]
}

// String renders the fit.
func (f TailFit) String() string {
	return fmt.Sprintf("tail fit(alpha=%.3f, r2=%.3f, window=(%g, %g], points=%d)", f.Alpha, f.R2, f.Lo, f.Hi, f.Points)
}

// FitTail estimates the power-law index over the window (lo, hi]: the
// samples falling inside the window form a conditional empirical CCDF,
// and log(CCDF) is regressed on log(value) over the window's distinct
// values. Restricting the CCDF to the window isolates each regime, so
// the heavy far tail does not flatten the body estimate.
func FitTail(samples []float64, lo, hi float64) (TailFit, error) {
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
		// CCDF at v: fraction of the window's samples strictly above v.
		// The largest value has CCDF 0 and is skipped (log undefined).
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
