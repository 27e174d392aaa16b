package stats

import (
	"sort"
)

// ECDF is the empirical cumulative distribution of a sample. It backs the
// "P[X <= x]" (cumulative, center) and "P[X >= x]" (CCDF, right) panels of
// the paper's marginal-distribution figures.
//
// The sample is held as runs: its distinct values in ascending order and,
// for each, the number of samples not above it. The logs have 1-second
// resolution, so nearly every sample here repeats a few values many
// times — the 2.4 million per-second readings of a 28-day c(t) take a
// few hundred runs.
type ECDF struct {
	vals []float64 // distinct sample values, ascending
	cum  []int     // cum[j] samples are <= vals[j]
}

// NewECDF builds the ECDF of xs, which it only reads. A sample in sorted
// form (SortedForm) is read in place; any other is sorted into a
// temporary copy. The runs are held in slices of their own length, so
// the ECDF keeps nothing sample-sized. An empty sample is allowed but
// evaluates to a zero distribution.
func NewECDF(xs []float64) *ECDF {
	sorted := SortedView(xs)
	runs := 0
	for i, x := range sorted {
		if i+1 == len(sorted) || sorted[i+1] != x {
			runs++
		}
	}
	e := &ECDF{vals: make([]float64, 0, runs), cum: make([]int, 0, runs)}
	for i, x := range sorted {
		if i+1 < len(sorted) && sorted[i+1] == x {
			continue
		}
		e.vals = append(e.vals, x)
		e.cum = append(e.cum, i+1)
	}
	return e
}

// NewECDFCounts builds the ECDF of an integer-valued sample from its
// histogram: counts[v] samples equal v. It is NewECDF of the expanded
// sample without the expansion or the sort. A negative count panics.
func NewECDFCounts(counts []int) *ECDF {
	e := &ECDF{}
	n := 0
	for v, c := range counts {
		if c < 0 {
			panic("stats: negative histogram count")
		}
		if c == 0 {
			continue
		}
		n += c
		e.vals = append(e.vals, float64(v))
		e.cum = append(e.cum, n)
	}
	return e
}

// N returns the sample size.
func (e *ECDF) N() int {
	if len(e.cum) == 0 {
		return 0
	}
	return e.cum[len(e.cum)-1]
}

// below returns how many samples lie under the j-th distinct value.
func (e *ECDF) below(j int) int {
	if j == 0 {
		return 0
	}
	return e.cum[j-1]
}

// at returns the i-th order statistic (0-based).
func (e *ECDF) at(i int) float64 {
	return e.vals[sort.SearchInts(e.cum, i+1)]
}

// CDF returns P[X <= x].
//
//lsm:keep -- test oracle: ecdf_test.go, oracle_test.go and analyze's concurrency tests read the ECDF through it
func (e *ECDF) CDF(x float64) float64 {
	if e.N() == 0 {
		return 0
	}
	j := sort.Search(len(e.vals), func(j int) bool { return e.vals[j] > x })
	return float64(e.below(j)) / float64(e.N())
}

// CCDF returns P[X >= x] — the inclusive complementary form the paper
// plots (e.g. "P[l(i) >= x]" in Figure 19).
//
//lsm:keep -- test oracle: ecdf_test.go, oracle_test.go and analyze's concurrency tests read the ECDF through it
func (e *ECDF) CCDF(x float64) float64 {
	if e.N() == 0 {
		return 0
	}
	j := sort.SearchFloat64s(e.vals, x) // first distinct value >= x
	return float64(e.N()-e.below(j)) / float64(e.N())
}

// Quantile returns the p-quantile (p in [0,1]) by order statistic.
func (e *ECDF) Quantile(p float64) float64 {
	if e.N() == 0 {
		return 0
	}
	if p <= 0 {
		return e.vals[0]
	}
	if p >= 1 {
		return e.vals[len(e.vals)-1]
	}
	return quantileAt(e.N(), e.at, p)
}

// Point is one (X, Y) pair of a plottable series.
type Point struct {
	X, Y float64
}

// CDFPoints returns the step points (x_i, i/n) at each distinct sample
// value, suitable for plotting the cumulative panel.
func (e *ECDF) CDFPoints() []Point {
	out := make([]Point, len(e.vals))
	for j, v := range e.vals {
		out[j] = Point{X: v, Y: float64(e.cum[j]) / float64(e.N())}
	}
	return out
}

// CCDFPoints returns the points (x_i, P[X >= x_i]) at each distinct sample
// value, suitable for plotting the complementary panel on log axes.
func (e *ECDF) CCDFPoints() []Point {
	n := float64(e.N())
	out := make([]Point, len(e.vals))
	for j, v := range e.vals {
		out[j] = Point{X: v, Y: (n - float64(e.below(j))) / n}
	}
	return out
}
