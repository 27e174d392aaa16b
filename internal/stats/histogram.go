package stats

import (
	"fmt"
	"math"
)

// Histogram is a fixed-bin histogram over either a linear or a logarithmic
// axis. The paper's "Frequency" panels (left-hand plots of Figures 3, 5,
// 11, 13, ...) are normalized histograms on log axes.
type Histogram struct {
	// Edges has len(Counts)+1 entries; bin i covers [Edges[i], Edges[i+1]).
	// The final bin is closed on the right.
	Edges  []float64
	Counts []int

	total    int
	under    int // observations below Edges[0]
	over     int // observations above the last edge
	logScale bool
}

// NewLinearHistogram builds a histogram of n equal-width bins over
// [lo, hi].
//
//lsm:keep -- histogram_test.go and report_test.go build their histograms with it
func NewLinearHistogram(lo, hi float64, n int) (*Histogram, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: n=%d bins", ErrBadArgument, n)
	}
	if !(hi > lo) {
		return nil, fmt.Errorf("%w: range [%v, %v]", ErrBadArgument, lo, hi)
	}
	edges := make([]float64, n+1)
	width := (hi - lo) / float64(n)
	for i := range edges {
		edges[i] = lo + float64(i)*width
	}
	edges[n] = hi
	return &Histogram{Edges: edges, Counts: make([]int, n)}, nil
}

// NewLogHistogram builds a histogram of n logarithmically spaced bins over
// [lo, hi]; lo must be positive.
func NewLogHistogram(lo, hi float64, n int) (*Histogram, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: n=%d bins", ErrBadArgument, n)
	}
	if !(hi > lo) || lo <= 0 {
		return nil, fmt.Errorf("%w: log range [%v, %v]", ErrBadArgument, lo, hi)
	}
	edges := make([]float64, n+1)
	logLo, logHi := math.Log(lo), math.Log(hi)
	for i := range edges {
		edges[i] = math.Exp(logLo + (logHi-logLo)*float64(i)/float64(n))
	}
	edges[0], edges[n] = lo, hi
	return &Histogram{Edges: edges, Counts: make([]int, n), logScale: true}, nil
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	if x < h.Edges[0] {
		h.under++
		return
	}
	last := len(h.Edges) - 1
	if x > h.Edges[last] {
		h.over++
		return
	}
	if x == h.Edges[last] {
		h.Counts[last-1]++
		return
	}
	i := h.locate(x)
	h.Counts[i]++
}

func (h *Histogram) locate(x float64) int {
	if h.logScale {
		logLo := math.Log(h.Edges[0])
		logHi := math.Log(h.Edges[len(h.Edges)-1])
		i := int(float64(len(h.Counts)) * (math.Log(x) - logLo) / (logHi - logLo))
		return h.clampAndFix(x, i)
	}
	lo := h.Edges[0]
	hi := h.Edges[len(h.Edges)-1]
	i := int(float64(len(h.Counts)) * (x - lo) / (hi - lo))
	return h.clampAndFix(x, i)
}

// clampAndFix repairs the analytically computed bin index against
// floating-point boundary error by nudging until Edges[i] <= x < Edges[i+1].
func (h *Histogram) clampAndFix(x float64, i int) int {
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	for i > 0 && x < h.Edges[i] {
		i--
	}
	for i < len(h.Counts)-1 && x >= h.Edges[i+1] {
		i++
	}
	return i
}

// AddAll records every observation in xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// OutOfRange returns the counts below and above the histogram range.
func (h *Histogram) OutOfRange() (under, over int) { return h.under, h.over } //lsm:keep -- histogram_test.go checks the out-of-range counts

// Frequencies returns each bin count divided by the total number of
// observations — the "Frequency" axis of the paper's marginal plots.
// Returns nil if nothing was recorded.
func (h *Histogram) Frequencies() []float64 {
	if h.total == 0 {
		return nil
	}
	out := make([]float64, len(h.Counts))
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}

// Centers returns the representative x of each bin: arithmetic midpoints
// for linear bins, geometric midpoints for logarithmic bins.
func (h *Histogram) Centers() []float64 {
	out := make([]float64, len(h.Counts))
	for i := range out {
		if h.logScale {
			out[i] = math.Sqrt(h.Edges[i] * h.Edges[i+1])
		} else {
			out[i] = (h.Edges[i] + h.Edges[i+1]) / 2
		}
	}
	return out
}
